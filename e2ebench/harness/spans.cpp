#include "harness/spans.hpp"

#include <cstdio>

namespace e2ebench {

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kUnit:
      return "unit";
    case SpanName::kSchedDecide:
      return "sched.decide_into";
    case SpanName::kTrafficNext:
      return "workload.next";
    case SpanName::kArrivalPull:
      return "switchsim.arrival_stream";
    case SpanName::kFeedParse:
      return "srv.feed_next";
    case SpanName::kTopoReplay:
      return "topo.route_solve_replay";
    case SpanName::kCount:
      break;
  }
  return "?";
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"format\":\"e2ebench-spans-v1\",\"dropped\":%llu,"
                  "\"totals\":{",
               static_cast<unsigned long long>(dropped_));
  for (std::size_t k = 0; k < kSpanNames; ++k) {
    std::fprintf(f, "%s\"%s\":{\"calls\":%llu,\"total_ns\":%llu}",
                 k == 0 ? "" : ",", span_name(static_cast<SpanName>(k)),
                 static_cast<unsigned long long>(calls_[k]),
                 static_cast<unsigned long long>(total_ns_[k]));
  }
  std::fprintf(f, "},\"spans\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanInterval& s = spans_[i];
    std::fprintf(f, "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                    "\"end_ns\":%llu,\"parent\":%lld}",
                 i == 0 ? "" : ",", i,
                 span_name(static_cast<SpanName>(s.name)),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 s.parent == SpanInterval::kNoParent
                     ? -1LL
                     : static_cast<long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
