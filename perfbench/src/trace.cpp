#include "trace.h"

#include <fstream>

namespace perfbench {

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << R"({"name":"thread_name","ph":"M","pid":1,"tid":0,)"
     << R"("args":{"name":"program calls"}},)" << '\n';
  os << R"({"name":"thread_name","ph":"M","pid":1,"tid":1,)"
     << R"("args":{"name":"layer replays"}})";
  os.precision(3);
  os << std::fixed;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << ",\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << s.track << ",\"ts\":" << s.start_us
       << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"id\":" << i
       << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
