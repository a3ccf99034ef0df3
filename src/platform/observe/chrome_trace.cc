// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/platform/observe/chrome_trace.h"

#include <cinttypes>
#include <cstdio>

namespace trustlite {
namespace {

// tid 0 is the synthetic hardware lane; execution lanes are 1 + lane index.
constexpr int kHwTid = 0;

int Tid(int lane) { return 1 + lane; }

const char* ExceptionName(uint32_t cls) {
  switch (cls) {
    case 0:
      return "mpu-fault";
    case 1:
      return "illegal";
    case 2:
      return "bus-error";
    case 3:
      return "align";
    case 4:
      return "reset";
    default:
      return cls >= 16 ? "swi" : "irq";
  }
}

}  // namespace

int ChromeTraceWriter::AddLane(const std::string& name, uint32_t code_base,
                               uint32_t code_end, bool is_os) {
  return map_.AddLane(name, code_base, code_end, is_os);
}

void ChromeTraceWriter::ConfigureFromReport(const EaMpu& mpu,
                                            const LoadReport& report) {
  map_.ConfigureFromReport(mpu, report);
}

std::string ChromeTraceWriter::EscapeJson(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20 || u >= 0x7F) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void ChromeTraceWriter::Emit(std::string record) {
  if (records_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  records_.push_back(std::move(record));
}

void ChromeTraceWriter::CloseSpan(uint64_t end_cycle) {
  if (span_lane_ < 0) {
    return;
  }
  const uint64_t end = end_cycle > span_start_ ? end_cycle : span_start_ + 1;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"exec\",\"ph\":\"X\",\"ts\":%" PRIu64
                ",\"dur\":%" PRIu64
                ",\"pid\":%d,\"tid\":%d,\"args\":{\"instructions\":%" PRIu64
                "}}",
                span_start_, end - span_start_, pid_, Tid(span_lane_),
                span_insns_);
  Emit(buf);
  span_lane_ = -1;
  span_insns_ = 0;
}

void ChromeTraceWriter::OnInstruction(const InsnEvent& event) {
  const uint64_t start = event.cycle - event.cost;
  const int lane = map_.LaneFor(event.ip);
  if (lane != span_lane_) {
    CloseSpan(start);
    span_lane_ = lane;
    span_start_ = start;
  }
  span_end_ = event.cycle;
  ++span_insns_;
}

void ChromeTraceWriter::OnTrap(const TrapEvent& event) {
  const uint64_t entry_start = event.cycle - event.entry_cycles;
  const int subject_lane = map_.LaneFor(event.subject_ip);
  CloseSpan(entry_start);
  char buf[384];
  // Entry-cost span on the interrupted lane: its duration IS the Sec. 5.4
  // constant (21 / 23 / 42 cycles).
  std::snprintf(
      buf, sizeof(buf),
      "{\"name\":\"entry:%s\",\"ph\":\"X\",\"ts\":%" PRIu64 ",\"dur\":%u"
      ",\"pid\":%d,\"tid\":%d,\"args\":{\"class\":%u,\"handler\":%u,"
      "\"subject_ip\":%u,\"secure_save\":%s,\"halted\":%s}}",
      ExceptionName(event.exception_class), entry_start, event.entry_cycles,
      pid_, Tid(subject_lane), event.exception_class, event.handler,
      event.subject_ip, event.trustlet_path ? "true" : "false",
      event.halted ? "true" : "false");
  Emit(buf);
  if (!event.halted) {
    // Flow arrow: interrupted subject -> handler's lane.
    const int handler_lane = map_.LaneFor(event.handler);
    const uint64_t id = next_flow_id_++;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"dispatch\",\"ph\":\"s\",\"ts\":%" PRIu64
                  ",\"pid\":%d,\"tid\":%d,\"id\":%" PRIu64 "}",
                  entry_start, pid_, Tid(subject_lane), id);
    Emit(buf);
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"dispatch\",\"ph\":\"f\",\"bp\":\"e\",\"ts\":%" PRIu64
                  ",\"pid\":%d,\"tid\":%d,\"id\":%" PRIu64 "}",
                  event.cycle, pid_, Tid(handler_lane), id);
    Emit(buf);
    if (event.interrupt && irq_flow_id_ != 0) {
      // Close the raise->recognition arrow opened by OnIrqRaise.
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"irq\",\"ph\":\"f\",\"bp\":\"e\",\"ts\":%" PRIu64
                    ",\"pid\":%d,\"tid\":%d,\"id\":%" PRIu64 "}",
                    entry_start, pid_, Tid(subject_lane), irq_flow_id_);
      Emit(buf);
      irq_flow_id_ = 0;
    }
  }
}

void ChromeTraceWriter::OnHalt(const HaltEvent& event) {
  CloseSpan(event.cycle);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"halt\",\"ph\":\"i\",\"ts\":%" PRIu64
                ",\"pid\":%d,\"tid\":%d,\"s\":\"g\",\"args\":{\"ip\":%u,"
                "\"trap\":%s,\"trap_class\":%u}}",
                event.cycle, pid_, Tid(map_.LaneFor(event.ip)), event.ip,
                event.trap ? "true" : "false", event.trap_class);
  Emit(buf);
}

void ChromeTraceWriter::OnUartTx(const UartTxEvent& event) {
  char printable[8];
  if (event.byte >= 0x20 && event.byte < 0x7F && event.byte != '"' &&
      event.byte != '\\') {
    std::snprintf(printable, sizeof(printable), "%c", event.byte);
  } else {
    std::snprintf(printable, sizeof(printable), "0x%02x", event.byte);
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"uart:%s\",\"ph\":\"i\",\"ts\":%" PRIu64
                ",\"pid\":%d,\"tid\":%d,\"s\":\"t\",\"args\":{\"byte\":%u,"
                "\"ip\":%u}}",
                printable, event.cycle, pid_, Tid(map_.LaneFor(event.ip)),
                event.byte, event.ip);
  Emit(buf);
}

void ChromeTraceWriter::OnMpuFault(const MpuFaultEvent& event) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"mpu-fault\",\"ph\":\"i\",\"ts\":%" PRIu64
                ",\"pid\":%d,\"tid\":%d,\"s\":\"t\",\"args\":{\"addr\":%u,"
                "\"kind\":%d,\"ip\":%u}}",
                event.cycle, pid_, Tid(map_.LaneFor(event.ip)),
                event.addr, static_cast<int>(event.kind), event.ip);
  Emit(buf);
}

void ChromeTraceWriter::OnIrqRaise(const IrqRaiseEvent& event) {
  const uint64_t id = next_flow_id_++;
  irq_flow_id_ = id;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"irq-raise\",\"ph\":\"i\",\"ts\":%" PRIu64
                ",\"pid\":%d,\"tid\":%d,\"s\":\"t\",\"args\":{\"line\":%d,"
                "\"handler\":%u}}",
                event.cycle, pid_, kHwTid, event.line, event.handler);
  Emit(buf);
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"irq\",\"ph\":\"s\",\"ts\":%" PRIu64
                ",\"pid\":%d,\"tid\":%d,\"id\":%" PRIu64 "}",
                event.cycle, pid_, kHwTid, id);
  Emit(buf);
}

void ChromeTraceWriter::OnBusError(const BusErrorEvent& event) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"bus-error\",\"ph\":\"i\",\"ts\":%" PRIu64
                ",\"pid\":%d,\"tid\":%d,\"s\":\"t\",\"args\":{\"addr\":%u,"
                "\"kind\":%d,\"ip\":%u}}",
                event.cycle, pid_, Tid(map_.LaneFor(event.ip)),
                event.addr, static_cast<int>(event.kind), event.ip);
  Emit(buf);
}

void ChromeTraceWriter::OnDmaTransfer(const DmaTransferEvent& event) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"dma\",\"ph\":\"i\",\"ts\":%" PRIu64
                ",\"pid\":%d,\"tid\":%d,\"s\":\"t\",\"args\":{\"src\":%u,"
                "\"dst\":%u,\"len\":%u,\"faulted\":%s}}",
                event.cycle, pid_, kHwTid, event.src, event.dst, event.len,
                event.faulted ? "true" : "false");
  Emit(buf);
}

void ChromeTraceWriter::OnReset(const ResetEvent& event) {
  CloseSpan(span_end_);
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"reset\",\"ph\":\"i\",\"ts\":%" PRIu64
                ",\"pid\":%d,\"tid\":%d,\"s\":\"g\"}",
                event.cycle, pid_, kHwTid);
  Emit(buf);
  irq_flow_id_ = 0;
}

void ChromeTraceWriter::Finish() {
  if (finished_) {
    return;
  }
  CloseSpan(span_end_);
  finished_ = true;
}

void ChromeTraceWriter::AppendEvents(std::string* out, bool* first) {
  Finish();
  char buf[256];
  auto emit = [&](const std::string& record) {
    if (!*first) {
      *out += ",\n";
    }
    *first = false;
    *out += record;
  };
  // Metadata records first: process name, then one thread name per lane.
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                "\"args\":{\"name\":\"%s\"}}",
                pid_, EscapeJson(process_name_).c_str());
  emit(buf);
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                "\"tid\":%d,\"args\":{\"name\":\"hw\"}}",
                pid_, kHwTid);
  emit(buf);
  for (int i = 0; i < map_.num_lanes(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                  pid_, Tid(i), EscapeJson(map_.lane(i).name).c_str());
    emit(buf);
  }
  for (const std::string& record : records_) {
    emit(record);
  }
}

std::string ChromeTraceWriter::Json() {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  AppendEvents(&out, &first);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\n],\n\"displayTimeUnit\":\"ms\",\"otherData\":{"
                "\"cycles_per_us\":1,\"dropped\":%zu}}\n",
                dropped_);
  out += buf;
  return out;
}

}  // namespace trustlite
