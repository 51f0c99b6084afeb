#include "obs/journal.hpp"

#include <filesystem>
#include <system_error>
#include <utility>

#include "support/log.hpp"

namespace extractocol::obs {

namespace fs = std::filesystem;

Journal::Journal(JournalOptions options) : options_(std::move(options)) {
    std::error_code ec;
    std::uintmax_t existing = fs::file_size(options_.path, ec);
    if (!ec) bytes_ = static_cast<std::uint64_t>(existing);
    out_.open(options_.path, std::ios::binary | std::ios::app);
    if (!out_) {
        log::warn().kv("file", options_.path)
            << "journal: cannot open; records will be dropped";
    }
}

void Journal::rotate_locked() {
    out_.close();
    std::error_code ec;
    fs::rename(options_.path, rotated_path(), ec);
    if (ec) {
        // Rotation failing must not lose the journal: keep appending to the
        // oversized file rather than truncating records away.
        log::warn().kv("file", options_.path).kv("error", ec.message())
            << "journal: rotation rename failed; continuing in place";
        out_.open(options_.path, std::ios::binary | std::ios::app);
        return;
    }
    out_.open(options_.path, std::ios::binary | std::ios::trunc);
    bytes_ = 0;
}

bool Journal::append(const text::Json& record) {
    // Compact dump contains no raw newlines, so one record = one line and
    // the file stays line-parseable even across crashes mid-run.
    std::string line = record.dump();
    line += '\n';
    std::lock_guard<std::mutex> lock(mutex_);
    if (options_.max_bytes > 0 && bytes_ > 0 &&
        bytes_ + line.size() > options_.max_bytes) {
        rotate_locked();
    }
    if (!out_) return false;
    out_.write(line.data(), static_cast<std::streamsize>(line.size()));
    out_.flush();
    if (!out_) {
        log::warn().kv("file", options_.path)
            << "journal: short write; record dropped";
        return false;
    }
    bytes_ += line.size();
    return true;
}

}  // namespace extractocol::obs
