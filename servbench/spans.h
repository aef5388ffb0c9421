// In-memory span recording for the traced replay.
//
// A span is one call into a layer, opened and closed from the benchmark's
// own files around a public call of the program. Spans nest: the span open
// when another opens becomes its parent, and a layer's self time is its
// duration minus the durations of its children. Labels are static layer
// names; a span carries no coordinate, region bound or user id, only the
// request ordinal it belongs to.

#ifndef NELA_SERVBENCH_SPANS_H_
#define NELA_SERVBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/timer.h"

namespace nela::servbench {

inline constexpr uint32_t kNoRequest = ~0u;
inline constexpr int32_t kNoParent = -1;

struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  // util::ThreadCpuSeconds() at open and close.
  double cpu_start_s = 0.0;
  double cpu_end_s = 0.0;
  int32_t parent = kNoParent;
  uint32_t request = kNoRequest;
  // False for spans that attribute time to a layer without being a call
  // into it (e.g. dropping a snapshot the layer handed out).
  bool call = true;
};

class SpanRecorder {
 public:
  // Opens a span as a child of the innermost open span and returns its id.
  size_t Open(const char* name, bool call = true);
  void Close(size_t id);

  // Ordinal stamped on spans opened from now on.
  void set_request(uint32_t ordinal) { request_ = ordinal; }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  util::WallTimer clock_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  uint32_t request_ = kNoRequest;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, bool call = true)
      : recorder_(recorder), id_(recorder.Open(name, call)) {}
  ~ScopedSpan() { recorder_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  size_t id_;
};

struct LayerTotals {
  uint64_t calls = 0;
  double self_us = 0.0;
  double self_cpu_us = 0.0;
  // Self time spent inside request spans (the share's numerator).
  double request_self_us = 0.0;
};

struct SpanSummary {
  std::map<std::string, LayerTotals> layers;
  uint64_t requests = 0;
  // Sum of the request root spans' durations.
  double request_us = 0.0;
};

// Folds the spans into per-layer self times. Spans named `request_label`
// are the per-request roots; their self time is the request time no layer
// span covers.
SpanSummary Summarize(const std::vector<Span>& spans,
                      const std::string& request_label);

}  // namespace nela::servbench

#endif  // NELA_SERVBENCH_SPANS_H_
