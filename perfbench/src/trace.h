// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files, around the calls it
// makes into each mecar layer; nothing inside the library is instrumented.
// Each span carries its name, start, end, the span that caused it, and a
// track: track 0 holds the program's own calls (run, slot, decide,
// feedback, offline algorithm calls), track 1 the benchmark's replays of
// single layers on the same inputs (candidate scans, slot-LP builds, LP
// solves, overlay rebuilds). A replay span's parent is the program span
// whose inputs it replays. Spans are written out once, at exit, as a
// chrome://tracing file.
#pragma once

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic microseconds since the recorder's epoch.
class Clock {
 public:
  Clock() : epoch_(std::chrono::steady_clock::now()) {}
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
};

struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  // index into the recorder, -1 = root
  int track = 0;    // 0 = program calls, 1 = layer replays
};

class SpanRecorder {
 public:
  /// A disabled recorder drops every span (record() returns -1).
  explicit SpanRecorder(bool enabled = false) : enabled_(enabled) {}

  void disable() noexcept { enabled_ = false; }

  int record(const char* name, double start_us, double end_us, int parent,
             int track) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, start_us, end_us, parent, track});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Widens an already recorded span's end (parents recorded before their
  /// children close).
  void set_end(int id, double end_us) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = end_us;
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Writes the chrome://tracing JSON (complete "X" events, one thread
  /// row per track, the parent index in each event's args). Returns false
  /// when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
