// Frame executors and the span tracer.
//
// Every end-to-end number comes from TcpExecutor: a Client on loopback
// against the in-process NetworkServer. The traced run swaps in
// InProcessExecutor, which runs the same frame through the same public
// functions the server calls — wire::EncodeTxnRequest, wire::DecodeRequest,
// Database::BeginTxn, Txn::Get/Put/Scan, Txn::Commit,
// wire::EncodeTxnReply, wire::DecodeReply — and, given a Tracer, records
// one span per call under the frame's span. Spans stay in memory until
// the run ends and are then written as Chrome trace-event JSON.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/database.h"
#include "server/client.h"
#include "server/wire.h"

namespace spf {
namespace e2e {

/// Monotonic wall clock in nanoseconds.
int64_t NowNs();

/// The calls the benchmark times. Each maps to the src/ module it enters.
enum class SpanKind : uint8_t {
  kFrame,          ///< one frame, all attempts (the parent of the next 7)
  kEncodeReq,      ///< wire::EncodeTxnRequest
  kDecodeReq,      ///< wire::DecodeRequest
  kBegin,          ///< Database::BeginTxn
  kGet,            ///< Txn::Get
  kPut,            ///< Txn::Put
  kScan,           ///< Txn::Scan
  kCommit,         ///< Txn::Commit
  kEncodeReply,    ///< wire::EncodeTxnReply
  kDecodeReply,    ///< wire::DecodeReply
  kFailDevice,     ///< SimDevice::FailDevice
  kRecoverMedia,   ///< Database::RecoverMedia
  kFullBackup,     ///< Database::TakeFullBackup
  kSimulateCrash,  ///< Database::SimulateCrash
  kRestart,        ///< Database::Restart
  kServerStart,    ///< NetworkServer::Start
  kCount,
};
constexpr size_t kSpanKinds = static_cast<size_t>(SpanKind::kCount);

const char* SpanName(SpanKind k);
/// The src/ module a span's call enters ("bench" for a frame's own time).
const char* SpanLayer(SpanKind k);

/// One finished span. `frame` is shared by a frame span and its children
/// (0 for spans outside any frame).
struct Span {
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  uint64_t frame = 0;
  SpanKind kind = SpanKind::kFrame;
  uint8_t tid = 0;
};

/// In-memory span store with one buffer per thread (no locking on the
/// recording path). Every duration is kept for the percentiles; span
/// records are kept for the first `frames_kept` frames of each thread
/// (and for every span outside a frame) to bound the trace file.
class Tracer {
 public:
  Tracer(int threads, uint64_t frames_kept);

  struct Buffer {
    std::vector<Span> spans;
    std::array<std::vector<int64_t>, kSpanKinds> durations;
    /// Self time per kind: duration minus what the span's children cover.
    std::array<int64_t, kSpanKinds> self_ns{};
    uint64_t frames = 0;
  };

  /// Starts a frame on thread `tid`; returns its id.
  uint64_t BeginFrame(int tid);
  /// Records a finished span. `children_ns` is the time its child spans
  /// covered (their intervals never overlap: a frame's calls are serial).
  void Record(int tid, SpanKind kind, uint64_t frame, int64_t start_ns,
              int64_t end_ns, int64_t children_ns = 0);

  /// All durations of `kind`, merged across threads.
  std::vector<int64_t> Durations(SpanKind kind) const;
  /// Self time per kind, summed across threads.
  std::array<int64_t, kSpanKinds> SelfNs() const;
  uint64_t frames() const;

  /// Writes the kept spans as Chrome trace-event JSON.
  Status WriteChromeJson(const std::string& path) const;

 private:
  uint64_t frames_per_thread_;
  std::vector<Buffer> buffers_;
};

/// Runs frames under the wire protocol's retry contract: resend while the
/// reply is retryable. Returns non-OK only when the frame could not be
/// delivered at all.
class Executor {
 public:
  virtual ~Executor() = default;
  virtual Status Execute(const wire::TxnRequest& req, wire::TxnReply* reply) = 0;
};

/// One loopback TCP connection (Client::ExecuteWithRetry).
class TcpExecutor final : public Executor {
 public:
  Status Connect(uint16_t port);
  void Close() { client_.Close(); }
  Status Execute(const wire::TxnRequest& req, wire::TxnReply* reply) override;

 private:
  Client client_;
};

/// The server's frame path called in-process; traced when given a Tracer.
class InProcessExecutor final : public Executor {
 public:
  InProcessExecutor(Database* db, Tracer* tracer, int tid)
      : db_(db), tracer_(tracer), tid_(tid) {}
  Status Execute(const wire::TxnRequest& req, wire::TxnReply* reply) override;

 private:
  /// One attempt: the body of NetworkServer::ExecuteTxn for the verbs the
  /// benchmark sends (Put, Get, Scan).
  wire::TxnReply RunTxn(const wire::TxnRequest& req, uint64_t frame,
                        int64_t* children_ns);

  /// Runs `fn`, recording a span of `kind` when tracing.
  template <typename Fn>
  auto Timed(SpanKind kind, uint64_t frame, int64_t* children_ns, Fn&& fn)
      -> decltype(fn());

  Database* const db_;
  Tracer* const tracer_;
  const int tid_;
};

}  // namespace e2e
}  // namespace spf
