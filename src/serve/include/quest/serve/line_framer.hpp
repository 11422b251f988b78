// quest/serve/line_framer.hpp
//
// Client-side line framing, shared by every front that reads request
// lines off a Transport (the serving Session_manager and the cluster's
// Replica_router). It reassembles newline-delimited lines from arbitrary
// chunk boundaries and enforces a per-line size cap: an oversized line
// is reported once through the overflow callback and discarded up to its
// terminating newline, after which framing continues — a hostile or
// buggy client cannot balloon memory past one cap's worth, and an honest
// one gets a diagnosable error instead of a dropped connection.
//
// feed() is a template over its callbacks so the per-line call inlines:
// framing adds no allocation and no type-erased call per line.

#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace quest::serve {

/// One connection's inbound reassembly buffer plus its overflow state.
class Line_framer {
 public:
  /// `max_line_bytes` is the longest accepted line, newline excluded.
  explicit Line_framer(std::size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  /// Feeds one chunk. Calls `on_line(std::string_view)` for every
  /// complete line within the cap and `on_overflow()` for every line
  /// past it. `on_line` returns false to stop: feed() then returns false
  /// at once without touching the framer again, so the callback may
  /// destroy it (a shutdown tears the connection down). Otherwise true.
  template <typename On_line, typename On_overflow>
  bool feed(std::string_view chunk, On_line&& on_line,
            On_overflow&& on_overflow) {
    if (discarding_) {
      // Still inside an oversized line: drop up to its newline.
      const auto newline = chunk.find('\n');
      if (newline == std::string_view::npos) return true;
      discarding_ = false;
      chunk.remove_prefix(newline + 1);
    }
    inbuf_.append(chunk);

    std::size_t start = 0;
    for (;;) {
      const auto newline = inbuf_.find('\n', start);
      if (newline == std::string::npos) break;
      const std::string_view line(inbuf_.data() + start, newline - start);
      start = newline + 1;
      if (line.size() > max_line_bytes_) {
        on_overflow();
        continue;
      }
      if (!on_line(line)) return false;
    }
    inbuf_.erase(0, start);

    // A partial line past the cap can never become an acceptable one:
    // report it now and discard until its newline arrives.
    if (inbuf_.size() > max_line_bytes_) {
      on_overflow();
      inbuf_.clear();
      inbuf_.shrink_to_fit();
      discarding_ = true;
    }
    return true;
  }

 private:
  std::size_t max_line_bytes_;
  /// Bytes received but not yet terminated by a newline.
  std::string inbuf_;
  /// The current line already exceeded the cap and was reported.
  bool discarding_ = false;
};

}  // namespace quest::serve
