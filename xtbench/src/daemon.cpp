// The daemon child process, its client, and the daemon_mixed workload:
// two connections in a closed loop against a primed, cached daemon. About
// 90% of requests repeat a corpus app (cache hits: framing, keying, decode,
// load, encode); about 10% send a fresh variant, a corpus app renamed on its
// `app` line (misses: parse, full analysis, store).
#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "text/json.hpp"

namespace xtbench {

using namespace extractocol;

// ----------------------------------------------------------- the child --

DaemonProcess::DaemonProcess(const std::string& binary, const std::string& dir,
                             unsigned jobs)
    : socket_path_(dir + "/d.sock") {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string cache_dir = dir + "/cache";
    std::string jobs_text = std::to_string(jobs);
    std::string log_path = dir + "/daemon.log";
    std::vector<std::string> args = {binary,    "--serve", socket_path_, "--cache-dir",
                                     cache_dir, "--jobs",  jobs_text};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (log_fd < 0) throw std::runtime_error("cannot open " + log_path);
    pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
        // Only async-signal-safe calls between fork and exec.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) ::_exit(127);
        ::dup2(log_fd, STDOUT_FILENO);
        ::dup2(log_fd, STDERR_FILENO);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    ::close(log_fd);
    if (pid_ < 0) throw std::runtime_error("fork failed");
}

DaemonProcess::~DaemonProcess() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    if (!reap(5.0)) {
        ::kill(pid_, SIGKILL);
        reap(60.0);
    }
}

bool DaemonProcess::reap(double timeout) {
    auto deadline = after(Clock::now(), timeout);
    while (true) {
        int status = 0;
        pid_t r = ::waitpid(pid_, &status, WNOHANG);
        if (r == pid_ || (r < 0 && errno == ECHILD)) {
            exit_status_ = (r == pid_ && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
            pid_ = -1;
            return true;
        }
        if (Clock::now() >= deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

bool DaemonProcess::shutdown() {
    if (pid_ <= 0) return exit_status_ == 0;
    try {
        Connection c(socket_path_, 5.0);
        std::string reply;
        c.round_trip("{\"op\":\"shutdown\"}\n", reply);
    } catch (const std::exception&) {
        ::kill(pid_, SIGTERM);
    }
    if (!reap(30.0)) return false;
    return exit_status_ == 0;
}

double DaemonProcess::cpu_seconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    std::size_t close = stat.rfind(')');
    if (close == std::string::npos) return 0;
    // Fields after the command name start at field 3 (state); utime and
    // stime are fields 14 and 15.
    std::istringstream fields(stat.substr(close + 2));
    std::string field;
    double ticks = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
        if (i >= 14) ticks += std::stod(field);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double DaemonProcess::peak_rss_mb() const {
    return xtbench::peak_rss_mb("/proc/" + std::to_string(pid_) + "/status");
}

// ---------------------------------------------------------- the client --

Connection::Connection(const std::string& socket_path, double timeout) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof addr.sun_path) {
        throw std::runtime_error("socket path too long: " + socket_path);
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    auto deadline = after(Clock::now(), timeout);
    while (true) {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0) throw std::runtime_error("socket() failed");
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) return;
        ::close(fd_);
        fd_ = -1;
        if (Clock::now() >= deadline) {
            throw std::runtime_error("daemon did not accept on " + socket_path);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

Connection::~Connection() {
    if (fd_ >= 0) ::close(fd_);
}

bool Connection::round_trip(const std::string& line, std::string& reply) {
    std::size_t sent = 0;
    while (sent < line.size()) {
        ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        sent += static_cast<std::size_t>(n);
    }
    std::size_t scanned = 0;
    while (true) {
        std::size_t newline = buffer_.find('\n', scanned);
        if (newline != std::string::npos) {
            reply.assign(buffer_, 0, newline);
            buffer_.erase(0, newline + 1);
            return true;
        }
        scanned = buffer_.size();
        pollfd p{fd_, POLLIN, 0};
        int ready = ::poll(&p, 1, 60'000);
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0) return false;
        char chunk[1 << 16];
        ssize_t n = ::read(fd_, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

std::string xapk_request(const std::string& text) {
    text::Json request = text::Json::object();
    request.set("xapk", text::Json(text));
    return request.dump() + "\n";
}

std::string variant_request(const std::string& request_line, const std::string& new_name) {
    // The `app "<name>"` line as it appears inside the JSON-escaped text.
    constexpr std::string_view kOpen = R"(\napp \")";
    constexpr std::string_view kClose = R"(\"\n)";
    if (new_name.find_first_of("\"\\\n\r\t") != std::string::npos) {
        throw std::runtime_error("variant name needs escaping: " + new_name);
    }
    std::size_t start = request_line.find(kOpen);
    std::size_t end = start == std::string::npos
                          ? std::string::npos
                          : request_line.find(kClose, start + kOpen.size());
    if (end == std::string::npos) throw std::runtime_error("request line has no app line");
    std::string out;
    out.reserve(request_line.size() + new_name.size());
    out.append(request_line, 0, start + kOpen.size());
    out += new_name;
    out.append(request_line, end, std::string::npos);
    return out;
}

bool reply_matches(const std::string& reply, const std::string& digest) {
    auto parsed = text::parse_json(reply);
    if (!parsed.ok()) return false;
    const text::Json* ok = parsed.value().find("ok");
    const text::Json* report = parsed.value().find("report");
    return ok != nullptr && ok->is_bool() && ok->as_bool() && report != nullptr &&
           rendered_digest(*report) == digest;
}

// ------------------------------------------------------- daemon_mixed --

namespace {

/// The app's .xapk text with the name on its `app` line replaced: a new
/// content key with the same analysis (the reference for variant_request).
std::string rename_app(const std::string& text, const std::string& new_name) {
    // write_xapk puts the `app "<name>"` line second, after the header.
    std::size_t start = text.find("\napp ");
    if (start == std::string::npos) return text;
    start += 1;
    std::size_t end = text.find('\n', start);
    text::Json quoted(new_name);  // JSON string escaping matches .xapk quoting here
    return text.substr(0, start) + "app " + quoted.dump() + text.substr(end);
}

constexpr int kRounds = 7;
constexpr int kConnections = 2;
constexpr unsigned kVariantOneIn = 10;

struct Sample {
    double rtt = 0;
    bool variant = false;
};

/// One client connection's closed loop and what it saw.
struct Client {
    std::vector<Sample> samples;
    /// Variant replies, checked after the timed window so verification
    /// never delays the next request.
    std::vector<std::pair<std::size_t, std::string>> variant_replies;
    std::uint64_t hits_ok = 0;
    std::uint64_t hit_mismatches = 0;
    std::uint64_t transport_errors = 0;
    /// End of this connection's current timed slice.
    Clock::time_point finished;
};

/// `stream` numbers the (round, connection) pair: it seeds the request mix
/// and keeps variant names unique within the run.
void client_loop(Connection& connection, const Corpus& corpus,
                 const std::vector<std::string>& hit_lines, std::uint64_t seed, int stream,
                 Clock::time_point deadline, Client& out) try {
    std::mt19937_64 rng(seed * 1000003u + static_cast<std::uint64_t>(stream));
    const std::size_t n = corpus.apps.size();
    // First verified hit reply per app; later hits must repeat it byte for
    // byte (a cache hit replays the stored report).
    std::vector<std::string> expected(n);
    std::string reply;
    std::size_t variants = 0;
    do {
        std::size_t app = static_cast<std::size_t>(rng() % n);
        bool variant = rng() % kVariantOneIn == 0;
        std::string variant_line;
        if (variant) {
            std::string name = corpus.apps[app].name + " ~" + std::to_string(seed) + "." +
                               std::to_string(stream) + "." + std::to_string(variants++);
            variant_line = variant_request(hit_lines[app], name);
        }
        const std::string& line = variant ? variant_line : hit_lines[app];
        auto start = Clock::now();
        bool ok = connection.round_trip(line, reply);
        out.samples.push_back({seconds_between(start, Clock::now()), variant});
        if (!ok) {
            ++out.transport_errors;
            break;
        }
        if (variant) {
            out.variant_replies.emplace_back(app, std::move(reply));
        } else if (reply == expected[app]) {
            ++out.hits_ok;
        } else if (reply_matches(reply, corpus.apps[app].digest)) {
            expected[app] = reply;
            ++out.hits_ok;
        } else {
            ++out.hit_mismatches;
        }
    } while (Clock::now() < deadline);
    out.finished = Clock::now();
} catch (const std::exception&) {
    ++out.transport_errors;
    out.finished = Clock::now();
}

}  // namespace

Outcome run_daemon_mixed(const Options& options, const Corpus& corpus) {
    Outcome out;
    std::mt19937_64 rng(options.seed);
    const std::size_t n = corpus.apps.size();
    std::vector<std::string> hit_lines;
    hit_lines.reserve(n);
    for (const App& app : corpus.apps) {
        hit_lines.push_back(xapk_request(app.text));
        out.check(variant_request(hit_lines.back(), "v") == xapk_request(rename_app(app.text, "v")),
                  app.name + ": variant request differs from a renamed app's request");
    }

    // Each round: set-up (spawn, first answered ping, then prime a fresh
    // cache with the corpus: one set-up sample), then a timed slice of
    // seconds / kRounds against that daemon. Spreading the set-ups over the
    // run lets setup_s see the same host conditions as the timed slices.
    Samples setup;
    std::vector<Client> clients(kConnections);
    double elapsed = 0;
    double cpu_seconds = 0;
    double peak_rss = 0;
    std::int64_t hits = 0, misses = 0, stores = 0;
    std::string reply;
    for (int round = 0; round < kRounds; ++round) {
        auto start = Clock::now();
        DaemonProcess daemon(options.extractocol,
                             options.out_dir + "/daemon" + std::to_string(round), kDaemonJobs);
        Connection primer(daemon.socket_path(), 30.0);
        out.check(primer.round_trip("{\"op\":\"ping\"}\n", reply) &&
                      reply.find("\"pong\":true") != std::string::npos,
                  "daemon did not answer ping");
        std::vector<std::string> replies;
        std::vector<std::size_t> order = shuffled(n, rng);
        for (std::size_t i : order) {
            if (!primer.round_trip(hit_lines[i], reply)) break;
            replies.push_back(std::move(reply));
        }
        setup.add(seconds_between(start, Clock::now()));
        for (std::size_t k = 0; k < n; ++k) {
            const App& app = corpus.apps[order[k]];
            out.check(k < replies.size() && reply_matches(replies[k], app.digest),
                      app.name + ": priming reply differs from the jobs-1 reference");
        }

        std::vector<std::unique_ptr<Connection>> connections;
        for (int c = 0; c < kConnections; ++c) {
            connections.push_back(std::make_unique<Connection>(daemon.socket_path(), 30.0));
        }
        double cpu_before = daemon.cpu_seconds();
        auto slice_start = Clock::now();
        auto deadline = after(slice_start, options.seconds / kRounds);
        {
            std::vector<std::thread> threads;
            for (int c = 0; c < kConnections; ++c) {
                threads.emplace_back(client_loop, std::ref(*connections[c]), std::cref(corpus),
                                     std::cref(hit_lines), options.seed,
                                     round * kConnections + c, deadline, std::ref(clients[c]));
            }
            for (std::thread& t : threads) t.join();
        }
        Clock::time_point slice_end = slice_start;
        for (const Client& c : clients) slice_end = std::max(slice_end, c.finished);
        elapsed += seconds_between(slice_start, slice_end);
        cpu_seconds += daemon.cpu_seconds() - cpu_before;
        peak_rss = std::max(peak_rss, daemon.peak_rss_mb());

        if (primer.round_trip("{\"op\":\"status\"}\n", reply)) {
            auto status = text::parse_json(reply);
            const text::Json* doc = status.ok() ? status.value().find("status") : nullptr;
            const text::Json* cache = doc != nullptr ? doc->find("cache") : nullptr;
            if (cache != nullptr && cache->find("hits") != nullptr) {
                hits += cache->find("hits")->as_int();
                misses += cache->find("misses")->as_int();
                stores += cache->find("stores")->as_int();
            }
        }
        connections.clear();
        out.check(daemon.shutdown(), "daemon did not exit 0 on shutdown");
    }

    Samples latency;
    std::size_t requests = 0;
    std::size_t variants = 0;
    for (const Client& c : clients) {
        for (const Sample& s : c.samples) {
            latency.add(s.rtt);
            variants += s.variant ? 1 : 0;
        }
        requests += c.samples.size();
        out.tally(c.hits_ok, c.hit_mismatches, "hit reply differs from the jobs-1 reference");
        out.tally(0, c.transport_errors, "request failed in transport");
        for (const auto& [app, variant_reply] : c.variant_replies) {
            out.check(reply_matches(variant_reply, corpus.apps[app].digest),
                      corpus.apps[app].name + ": variant reply differs from the reference");
        }
    }
    out.note("daemon caches: hits=" + std::to_string(hits) + " misses=" + std::to_string(misses) +
             " stores=" + std::to_string(stores));

    out.metric("throughput_ops_s", static_cast<double>(requests) / elapsed, "1/s");
    out.latency(latency, "request round trip, hits and variants");
    out.metric("cpu_ms_per_op", cpu_seconds * 1e3 / static_cast<double>(requests), "ms");
    out.metric("peak_rss_mb", peak_rss, "MiB");
    out.metric("setup_s", setup.median(), "s");
    out.note("requests=" + std::to_string(requests) + " (variants " + std::to_string(variants) +
             "), connections=" + std::to_string(kConnections) +
             ", daemon --jobs " + std::to_string(kDaemonJobs) +
             ", rounds=" + std::to_string(kRounds));
    return out;
}

}  // namespace xtbench
