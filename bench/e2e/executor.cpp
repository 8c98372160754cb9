#include "executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

namespace spf {
namespace e2e {

namespace {

// Client::ExecuteWithRetry's defaults, so both paths retry alike.
constexpr int kMaxAttempts = 256;

constexpr int kFrameSeqBits = 40;

uint64_t FrameSeq(uint64_t frame) {
  return frame & ((uint64_t{1} << kFrameSeqBits) - 1);
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanName(SpanKind k) {
  switch (k) {
    case SpanKind::kFrame: return "frame";
    case SpanKind::kEncodeReq: return "wire::EncodeTxnRequest";
    case SpanKind::kDecodeReq: return "wire::DecodeRequest";
    case SpanKind::kBegin: return "Database::BeginTxn";
    case SpanKind::kGet: return "Txn::Get";
    case SpanKind::kPut: return "Txn::Put";
    case SpanKind::kScan: return "Txn::Scan";
    case SpanKind::kCommit: return "Txn::Commit";
    case SpanKind::kEncodeReply: return "wire::EncodeTxnReply";
    case SpanKind::kDecodeReply: return "wire::DecodeReply";
    case SpanKind::kFailDevice: return "SimDevice::FailDevice";
    case SpanKind::kRecoverMedia: return "Database::RecoverMedia";
    case SpanKind::kFullBackup: return "Database::TakeFullBackup";
    case SpanKind::kSimulateCrash: return "Database::SimulateCrash";
    case SpanKind::kRestart: return "Database::Restart";
    case SpanKind::kServerStart: return "NetworkServer::Start";
    case SpanKind::kCount: break;
  }
  return "?";
}

const char* SpanLayer(SpanKind k) {
  switch (k) {
    case SpanKind::kFrame: return "bench";
    case SpanKind::kEncodeReq:
    case SpanKind::kDecodeReq:
    case SpanKind::kEncodeReply:
    case SpanKind::kDecodeReply:
    case SpanKind::kServerStart: return "server";
    case SpanKind::kBegin:
    case SpanKind::kGet:
    case SpanKind::kPut:
    case SpanKind::kScan:
    case SpanKind::kCommit: return "db";
    case SpanKind::kFailDevice: return "storage";
    case SpanKind::kRecoverMedia:
    case SpanKind::kSimulateCrash:
    case SpanKind::kRestart: return "recovery";
    case SpanKind::kFullBackup: return "backup";
    case SpanKind::kCount: break;
  }
  return "?";
}

Tracer::Tracer(int threads, uint64_t frames_kept)
    : frames_per_thread_(frames_kept / static_cast<uint64_t>(std::max(threads, 1))),
      buffers_(static_cast<size_t>(threads)) {}

uint64_t Tracer::BeginFrame(int tid) {
  Buffer& b = buffers_[static_cast<size_t>(tid)];
  return (static_cast<uint64_t>(tid + 1) << kFrameSeqBits) | b.frames++;
}

void Tracer::Record(int tid, SpanKind kind, uint64_t frame, int64_t start_ns,
                    int64_t end_ns, int64_t children_ns) {
  Buffer& b = buffers_[static_cast<size_t>(tid)];
  const int64_t dur = end_ns - start_ns;
  const size_t k = static_cast<size_t>(kind);
  b.durations[k].push_back(dur);
  b.self_ns[k] += dur - children_ns;
  if (frame == 0 || FrameSeq(frame) < frames_per_thread_) {
    b.spans.push_back(Span{start_ns, dur, frame, kind, static_cast<uint8_t>(tid)});
  }
}

std::vector<int64_t> Tracer::Durations(SpanKind kind) const {
  std::vector<int64_t> out;
  for (const Buffer& b : buffers_) {
    const auto& d = b.durations[static_cast<size_t>(kind)];
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

std::array<int64_t, kSpanKinds> Tracer::SelfNs() const {
  std::array<int64_t, kSpanKinds> out{};
  for (const Buffer& b : buffers_) {
    for (size_t k = 0; k < kSpanKinds; ++k) out[k] += b.self_ns[k];
  }
  return out;
}

uint64_t Tracer::frames() const {
  uint64_t n = 0;
  for (const Buffer& b : buffers_) n += b.frames;
  return n;
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(fopen(path.c_str(), "w"), fclose);
  if (f == nullptr) return Status::IOError("cannot write " + path);
  int64_t origin = INT64_MAX;
  for (const Buffer& b : buffers_) {
    for (const Span& s : b.spans) origin = std::min(origin, s.start_ns);
  }
  fprintf(f.get(), "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (const Buffer& b : buffers_) {
    for (const Span& s : b.spans) {
      fprintf(f.get(),
              "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
              "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"frame\":%llu}}",
              first ? "" : ",", SpanName(s.kind), SpanLayer(s.kind),
              static_cast<unsigned>(s.tid), (s.start_ns - origin) / 1e3,
              s.dur_ns / 1e3, static_cast<unsigned long long>(s.frame));
      first = false;
    }
  }
  fprintf(f.get(), "\n]}\n");
  if (ferror(f.get())) return Status::IOError("short write to " + path);
  return Status::OK();
}

Status TcpExecutor::Connect(uint16_t port) {
  client_.Close();
  return client_.Connect("127.0.0.1", port);
}

Status TcpExecutor::Execute(const wire::TxnRequest& req, wire::TxnReply* reply) {
  return client_.ExecuteWithRetry(req, reply, kMaxAttempts);
}

template <typename Fn>
auto InProcessExecutor::Timed(SpanKind kind, uint64_t frame,
                              int64_t* children_ns, Fn&& fn) -> decltype(fn()) {
  if (tracer_ == nullptr) return fn();
  const int64_t start = NowNs();
  auto result = fn();
  const int64_t end = NowNs();
  tracer_->Record(tid_, kind, frame, start, end);
  *children_ns += end - start;
  return result;
}

Status InProcessExecutor::Execute(const wire::TxnRequest& req,
                                  wire::TxnReply* reply) {
  const uint64_t frame = tracer_ != nullptr ? tracer_->BeginFrame(tid_) : 0;
  const int64_t start = tracer_ != nullptr ? NowNs() : 0;
  int64_t children = 0;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const std::string request = Timed(SpanKind::kEncodeReq, frame, &children,
                                      [&] { return wire::EncodeTxnRequest(req); });
    wire::Request decoded;
    wire::WireError err = Timed(SpanKind::kDecodeReq, frame, &children, [&] {
      return wire::DecodeRequest(
          std::string_view(request).substr(wire::kFramingBytes), &decoded);
    });
    if (err != wire::WireError::kNone) {
      return Status::Corruption("request did not decode");
    }
    const wire::TxnReply executed = RunTxn(decoded.txn, frame, &children);
    const std::string response = Timed(SpanKind::kEncodeReply, frame, &children,
                                       [&] { return wire::EncodeTxnReply(executed); });
    wire::Reply back;
    err = Timed(SpanKind::kDecodeReply, frame, &children, [&] {
      return wire::DecodeReply(
          std::string_view(response).substr(wire::kFramingBytes), &back);
    });
    if (err != wire::WireError::kNone) {
      return Status::Corruption("reply did not decode");
    }
    *reply = std::move(back.txn);
    if (!reply->retryable()) break;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min(attempt + 1, 10)));
  }
  if (tracer_ != nullptr) {
    tracer_->Record(tid_, SpanKind::kFrame, frame, start, NowNs(), children);
  }
  return Status::OK();
}

wire::TxnReply InProcessExecutor::RunTxn(const wire::TxnRequest& req,
                                         uint64_t frame, int64_t* children_ns) {
  wire::TxnReply reply;
  Txn txn = Timed(SpanKind::kBegin, frame, children_ns,
                  [&] { return db_->BeginTxn(); });
  auto fail = [&reply](uint16_t op_idx, const TxnError& e) {
    reply.kind = e.kind();
    reply.code = e.status().code();
    reply.failed_op = op_idx;
    reply.message = std::string(e.status().message());
  };
  for (size_t i = 0; i < req.ops.size(); ++i) {
    const wire::TxnOp& op = req.ops[i];
    const std::string& key = req.keys[op.key];
    TxnError e;
    wire::OpResult result;
    result.kind = op.kind;
    switch (op.kind) {
      case wire::WireOp::kPut:
        e = Timed(SpanKind::kPut, frame, children_ns,
                  [&] { return txn.Put(key, op.value); });
        break;
      case wire::WireOp::kGet: {
        StatusOr<std::string> v = Timed(SpanKind::kGet, frame, children_ns,
                                        [&] { return txn.Get(key); });
        if (v.ok()) {
          result.value = std::move(*v);
        } else {
          e = txn.last_error();
          if (e.ok()) e = TxnError::Classify(v.status(), txn.doomed(), false);
        }
        break;
      }
      case wire::WireOp::kScan: {
        const uint32_t limit = op.limit == 0
                                   ? wire::kMaxScanResults
                                   : std::min(op.limit, wire::kMaxScanResults);
        const std::string_view end = op.end_key == wire::kNoKey
                                         ? std::string_view()
                                         : std::string_view(req.keys[op.end_key]);
        Status s = Timed(SpanKind::kScan, frame, children_ns, [&] {
          return txn.Scan(key, end, [&result, limit](std::string_view k,
                                                     std::string_view v) {
            result.pairs.emplace_back(std::string(k), std::string(v));
            return result.pairs.size() < limit;
          });
        });
        if (!s.ok()) {
          e = txn.last_error();
          if (e.ok()) e = TxnError::Classify(s, txn.doomed(), false);
        }
        break;
      }
      default:
        e = TxnError(TxnError::Kind::kUser,
                     Status::InvalidArgument("verb not sent by the benchmark"));
        break;
    }
    if (!e.ok()) {
      fail(static_cast<uint16_t>(i), e);
      return reply;  // dropping `txn` aborts it, as in the server
    }
    reply.results.push_back(std::move(result));
  }
  TxnError commit = Timed(SpanKind::kCommit, frame, children_ns,
                          [&] { return txn.Commit(); });
  if (!commit.ok()) fail(wire::kNoFailedOp, commit);
  return reply;
}

}  // namespace e2e
}  // namespace spf
