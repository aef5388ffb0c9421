#include "spans.h"

#include "util/check.h"

namespace nela::servbench {

size_t SpanRecorder::Open(const char* name, bool call) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? kNoParent : static_cast<int32_t>(open_.back());
  span.request = request_;
  span.call = call;
  span.cpu_start_s = util::ThreadCpuSeconds();
  span.start_us = clock_.ElapsedMicros();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::Close(size_t id) {
  NELA_CHECK(!open_.empty() && open_.back() == id);
  open_.pop_back();
  Span& span = spans_[id];
  span.end_us = clock_.ElapsedMicros();
  span.cpu_end_s = util::ThreadCpuSeconds();
}

SpanSummary Summarize(const std::vector<Span>& spans,
                      const std::string& request_label) {
  std::vector<double> child_us(spans.size(), 0.0);
  std::vector<double> child_cpu_s(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent == kNoParent) continue;
    const auto parent = static_cast<size_t>(span.parent);
    child_us[parent] += span.end_us - span.start_us;
    child_cpu_s[parent] += span.cpu_end_s - span.cpu_start_s;
  }
  SpanSummary summary;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double duration_us = span.end_us - span.start_us;
    const double self_us = duration_us - child_us[i];
    LayerTotals& layer = summary.layers[span.name];
    if (span.call) ++layer.calls;
    layer.self_us += self_us;
    layer.self_cpu_us +=
        1e6 * (span.cpu_end_s - span.cpu_start_s - child_cpu_s[i]);
    if (span.request != kNoRequest) layer.request_self_us += self_us;
    if (request_label == span.name) {
      ++summary.requests;
      summary.request_us += duration_us;
    }
  }
  return summary;
}

}  // namespace nela::servbench
