#include "obs/trace_ring.h"

#include <algorithm>
#include <cstring>

#include "common/string_util.h"

namespace sqlcm::obs {

void TraceRing::Record(uint8_t kind, std::string_view qualifier,
                       uint32_t rules_fired, int64_t ts_micros,
                       int64_t dispatch_micros) {
  const size_t len = std::min(qualifier.size(), kMaxQualifierBytes);
  StampedRing<7>::Words words{};
  words[0] = static_cast<uint64_t>(ts_micros);
  words[1] = static_cast<uint64_t>(dispatch_micros);
  words[2] = common::Fnv1a64(qualifier);
  words[3] = rules_fired | (uint64_t{kind} << 32) | (uint64_t{len} << 40);
  if (len > 0) std::memcpy(&words[4], qualifier.data(), len);
  ring_.Record(words);
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(std::min<uint64_t>(total_recorded(), capacity()));
  ring_.Snapshot([&out](uint64_t ticket, const StampedRing<7>::Words& words) {
    TraceEvent ev;
    ev.seq = ticket;
    ev.ts_micros = static_cast<int64_t>(words[0]);
    ev.dispatch_micros = static_cast<int64_t>(words[1]);
    ev.qualifier_hash = words[2];
    ev.rules_fired = static_cast<uint32_t>(words[3]);
    ev.kind = static_cast<uint8_t>(words[3] >> 32);
    const size_t len =
        std::min<size_t>((words[3] >> 40) & 0xff, kMaxQualifierBytes);
    ev.qualifier.assign(reinterpret_cast<const char*>(&words[4]), len);
    out.push_back(std::move(ev));
  });
  return out;
}

}  // namespace sqlcm::obs
