// The daemon under test: a real `extractocol --serve` child process, and a
// blocking newline-delimited JSON client for it.
#pragma once

#include <sys/types.h>

#include <string>

#include "bench.hpp"

namespace xtbench {

/// The daemon's --jobs on every daemon path (daemon_mixed, traced run).
constexpr unsigned kDaemonJobs = 2;

/// `extractocol --serve <dir>/d.sock --cache-dir <dir>/cache --jobs <jobs>`
/// as a child process, with its log at <dir>/daemon.log. The destructor
/// stops and reaps the child on every path; the child also dies with this
/// process.
class DaemonProcess {
public:
    DaemonProcess(const std::string& binary, const std::string& dir, unsigned jobs);
    ~DaemonProcess();
    DaemonProcess(const DaemonProcess&) = delete;
    DaemonProcess& operator=(const DaemonProcess&) = delete;

    [[nodiscard]] const std::string& socket_path() const { return socket_path_; }
    /// User + system CPU seconds the child has used so far.
    [[nodiscard]] double cpu_seconds() const;
    /// Peak resident set of the child so far, in MiB.
    [[nodiscard]] double peak_rss_mb() const;
    /// Sends the shutdown op and reaps the child; true iff it exited 0.
    bool shutdown();

private:
    /// Waits up to `timeout` seconds for the child; true once reaped.
    bool reap(double timeout);

    std::string socket_path_;
    pid_t pid_ = -1;
    int exit_status_ = -1;
};

class Connection {
public:
    /// Connects to `socket_path`, retrying until the daemon listens or
    /// `timeout` seconds pass (then throws).
    Connection(const std::string& socket_path, double timeout);
    ~Connection();
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /// Writes one request line (newline included) and reads one reply line
    /// (newline stripped). False on transport failure or a 60 s stall.
    bool round_trip(const std::string& line, std::string& reply);

private:
    int fd_ = -1;
    std::string buffer_;
};

/// One request line carrying an inline .xapk text.
std::string xapk_request(const std::string& text);

/// xapk_request(rename_app(text, new_name)) from the app's request line,
/// without escaping the whole text again. `new_name` must need no escaping.
std::string variant_request(const std::string& request_line, const std::string& new_name);

/// Parses a daemon analysis reply; true when it is ok and its report's
/// digest equals `digest`.
bool reply_matches(const std::string& reply, const std::string& digest);

}  // namespace xtbench
