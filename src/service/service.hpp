// service::Service — the wire-protocol request/response loop over one shared
// ModelStore + executor, factored out of the spivar_serve tool so tests and
// other front ends can drive it directly.
//
// Every connection shares ONE Session over ONE ModelStore and executor, so
// a model any client loads (or names via a request's target spec) is built
// once, its synthesis setup is memoized once, and the result cache serves
// every client. A target or `load` spec must name a registry model (a
// curated builtin or a `sweep/` corpus name): anything else is refused with
// a typed api-unknown-builtin error, so no client can make the server open
// a file. Frames (see api/wire.hpp):
//
//   request v1 <kind> ... end      one envelope, answered in arrival order
//   request v2 <kind> <id> ...     pipelined envelope: handed to
//                                  Session::submit as soon as it decodes,
//                                  replied `response v2 <id> ...` the moment
//                                  the slot completes — out of arrival order
//                                  when a later request finishes first. A
//                                  batch is n of these, each with its own
//                                  priority and deadline lines.
//   control v1 <command> ...       ping | models | load | unload |
//                                  cache-stats | cache [stats|persist|flush] |
//                                  executor-stats | metrics |
//                                  trace [last|slowest|<id>] | shutdown
//                                  -> info frame (or an error response)
//   hello v1 <tenant> [token]      binds the connection to a tenant: later
//                                  frames evaluate through that tenant's
//                                  Session/StoreView (scoped ids, quotas,
//                                  salted content identity); a new name
//                                  creates an ad hoc tenant, at most
//                                  kMaxAdhocTenants of them. No hello =
//                                  the default tenant = pre-tenancy service
//                                  behavior, byte for byte.
//
// Any other frame (an unknown tag, `batch` included, or a frame over
// kMaxFrameBytes) gets one api-wire-error reply: the loop sends exactly one
// reply per frame, and the stream stays in sync.
//
// Pipelining contract per connection: one writer mutex serializes whole
// reply frames (no reordering buffer — a reply streams the moment its slot
// lands), and at most `max_inflight` v2 frames are evaluating at once; the
// reader stops pulling bytes off the socket until a slot drains, which is
// what pushes backpressure to the client. A v2 frame whose result sits in
// the cache's memory tier is answered on the reading thread, from the
// cache's stored frame with its header retagged; such replies are held and
// go out together whenever the reader could block or stall (no complete
// frame buffered, a backpressure wait, an inline v1/control frame, EOF), so
// no reply waits while the reader is blocked or busy. A tenant's own
// max_inflight quota composes with that: at the tenant cap the frame is
// *rejected* with a typed api-overload reply (and a retry-after hint)
// instead of blocking the reader — one tenant's burst must not stall
// another tenant sharing the executor. Together they bound every
// evaluation a connection starts: each v2 frame counts against both on
// arrival, and v1 frames and controls are handled inline, one at a time, so
// a v1-only client observes exactly the strict arrival-order behavior of
// protocol v1.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace spivar::service {

/// The most ad hoc tenants (hello names no configured tenant carries) one
/// service creates; a hello for another new name is refused. Configured
/// tenants and `default` do not count. spivar_loadgen --tenants stops here.
inline constexpr std::size_t kMaxAdhocTenants = 1024;

/// The most bytes one frame a client sends may take, counted as they are
/// read. The largest request frame the repo's tools and tests encode is
/// under 400 bytes, so 1 MiB leaves room for any hand-written frame while
/// bounding what one connection makes the server hold.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;

struct ServiceOptions {
  std::size_t jobs = 1;                        ///< executor workers
  std::optional<std::size_t> cache;            ///< result-cache capacity (nullopt = off)
  std::string record;                          ///< request log to append ("" = off)
  std::string cache_dir;                       ///< persistent tier directory ("" = off)
  std::uint64_t cache_bytes = 256ull << 20;    ///< persistent tier capacity
  bool fsync = false;                          ///< fsync record log + synchronous cache spills
  /// Per-connection cap on v2 frames evaluating at once; the reader blocks
  /// (stops consuming the socket) until a slot drains. Clamped to >= 1.
  std::size_t max_inflight = 64;

  /// Pre-provisioned tenants (quotas, optional tokens). A hello naming an
  /// unknown tenant is admitted with default (unlimited) quotas, up to
  /// kMaxAdhocTenants such tenants — only configured tenants can demand a
  /// token.
  struct TenantSpec {
    std::string name;
    api::TenantQuota quota;
  };
  std::vector<TenantSpec> tenants;

  /// Admission control: shed requests (typed api-overload + retry-after)
  /// while the executor's projected deadline-miss rate sits at or above
  /// this bound. >= 1.0 disables shedding (the default — a miss rate cannot
  /// exceed 1).
  double overload_miss_rate = 1.0;
  /// The retry-after hint attached to shed replies.
  std::chrono::milliseconds overload_retry_after{100};

  /// Completed traces kept for the `trace last|slowest|<id>` control.
  std::size_t trace_ring = 256;
  /// A request whose total latency reaches this lands in the slow-request
  /// JSONL sink (0 = log every request; meaningless without trace_log).
  std::uint64_t trace_slow_us = 0;
  /// Slow-request JSONL log path ("" = off) — `spivar_serve --trace-log`.
  std::string trace_log;
};

/// Per-stream telemetry serve_stream reports when the stream ends — what
/// the pipelining tests assert on and the tool ignores.
struct StreamStats {
  std::uint64_t frames = 0;             ///< frames read (requests, controls, hellos)
  std::uint64_t pipelined = 0;          ///< v2 request frames submitted
  std::uint64_t backpressure_waits = 0; ///< reader stalls at max_inflight
  std::uint64_t shed = 0;               ///< v2 frames rejected at a tenant's in-flight cap
};

/// The shared service state: one store, one executor, one session — every
/// connection (and the replay loop) evaluates against the same models and
/// the same result cache. Session's envelope surface is thread-safe, so
/// connection threads share it directly.
class Service {
 public:
  explicit Service(const ServiceOptions& options);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// How v2 frames on a stream are evaluated. kPipelined is the live
  /// connection mode (submit on decode, reply on completion); kOrdered
  /// evaluates every frame inline in arrival order — what --replay and
  /// --warm use so a recorded pipelined session reproduces one reply per
  /// request deterministically (replies still carry their v2 frame ids).
  enum class StreamMode { kPipelined, kOrdered };

  /// Replays a recorded request log against the shared session, responses
  /// discarded — run before accepting connections, this pre-populates both
  /// cache tiers. Recorded hello frames re-bind their tenants, so a warm
  /// restart restores per-tenant cache state too. Recording is suspended
  /// for the duration (warming from the log being recorded would duplicate
  /// it every restart) and a shutdown control inside the log is neutralized
  /// afterwards.
  void warm(std::istream& in);

  /// Flushes everything a graceful exit must not lose: drains queued async
  /// cache spills, then persists the remaining memory-tier entries (with a
  /// persistent tier). Idempotent — the drain path and the shutdown control
  /// both call it; calling it twice writes nothing new.
  void finish();

  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Invoked once when a shutdown control arrives (the TCP loop uses it to
  /// unblock accept()).
  std::function<void()> on_shutdown;

  /// Drives one stream of frames to EOF (or a shutdown control). Returns
  /// when the stream ends and every in-flight slot has replied; concurrent
  /// calls from several connection threads are safe. A frame whose handling
  /// throws produces an error response instead of tearing down the
  /// connection thread (and with it, the whole process).
  StreamStats serve_stream(std::istream& in, std::ostream& out,
                           StreamMode mode = StreamMode::kPipelined);

  [[nodiscard]] api::Session& session() noexcept { return *default_tenant_.session; }
  [[nodiscard]] const std::shared_ptr<api::ModelStore>& store() const noexcept { return store_; }

  /// The Prometheus text exposition — what the `metrics` control and the
  /// --metrics-port endpoint both serve. Runs the collectors, so every
  /// stats-struct counter is republished from the same snapshot the
  /// `executor-stats`/`cache-stats` controls would render.
  [[nodiscard]] std::string metrics_text() { return registry_.render(); }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return registry_; }
  [[nodiscard]] obs::Tracer& tracer() noexcept { return tracer_; }

 private:
  /// One connection's write side: whole reply frames under one mutex, so a
  /// slot completing on an executor thread never interleaves bytes with the
  /// reader thread's inline replies (or another slot's). Frames written by
  /// the reading thread (cache hits, inline replies) are held: appended to
  /// the stream without a flush, so a burst of them leaves in one write.
  /// The reader calls flush() before anything that could block or keep it
  /// busy; a frame from any other thread flushes at once, and carries
  /// whatever is held with it.
  struct Writer {
    std::ostream& out;
    const std::thread::id reader = std::this_thread::get_id();
    std::mutex mutex;
    bool held = false;  ///< the reader appended frames not yet flushed; guarded by mutex
    void write(std::string_view frame);
    void flush();
  };

  /// In-flight accounting for one pipelined stream.
  struct Inflight {
    std::mutex mutex;
    std::condition_variable drained;
    std::size_t count = 0;
    /// Hands back one v2 frame's token, waking a reader held at the cap
    /// (and the drain at the end of the stream).
    void release();
  };

  /// One instrument handle per request kind, indexed by RequestKind — the
  /// pre-resolved handles the request paths bump without registry lookups.
  static constexpr std::size_t kKinds = 5;
  using KindCounters = std::array<obs::Counter*, kKinds>;

  /// One tenant's service-side state: the view/session pair every
  /// connection bound to this tenant shares, plus in-flight accounting for
  /// the per-tenant cap. Created at startup (configured tenants) or on
  /// first hello (ad hoc tenants, at most kMaxAdhocTenants) and kept for
  /// the service's lifetime. The default tenant — tag 0, named `default`,
  /// what a stream without a hello evaluates as — is one too, held outside
  /// tenants_.
  struct Tenant {
    api::TenantContext context;
    api::TenantQuota quota;
    std::shared_ptr<api::StoreView> view;
    std::shared_ptr<api::Session> session;
    std::atomic<std::size_t> inflight{0};    ///< v2 slots evaluating now (capped tenants)
    std::atomic<std::uint64_t> shed{0};      ///< frames rejected at the cap
    /// Resolved once at tenant creation: spivar_requests_total /
    /// spivar_request_errors_total{tenant=...,kind=...}.
    KindCounters requests{};
    KindCounters errors{};
  };

  /// One tenant's in-flight row in `executor-stats` and the collector.
  struct TenantRow {
    std::string name;
    std::size_t inflight = 0;
    std::size_t max_inflight = 0;  ///< 0 = uncapped
    std::uint64_t shed = 0;
  };

  /// The tenant table joined with the cache's per-tenant ledger, read under
  /// one lock: what `executor-stats`, `cache-stats`, `cache stats` and the
  /// metrics collector all render.
  struct TenantSnapshot {
    std::vector<TenantRow> tenants;  ///< by name
    /// The ledger's rows by tag, each under its tenant's name (`#<tag>`
    /// for a tag no tenant holds); empty without a cache.
    std::vector<std::pair<std::string, api::TenantCacheStats>> cache;
  };

  /// A request's trace and kind, kept for observe_done once the request
  /// itself has moved into the session.
  struct Traced {
    std::shared_ptr<obs::TraceContext> trace;
    api::RequestKind kind;
  };

  void record_frame(const std::string& frame);
  void handle_control(const api::wire::ControlCommand& control, Writer& writer, Tenant& tenant);
  void handle_cache_control(const api::wire::ControlCommand& control, Writer& writer);
  void reply_info(Writer& writer, const std::string& text);
  void reply_error(Writer& writer, const support::DiagnosticList& diagnostics);
  void reply_error(Writer& writer, const std::string& message);
  /// Mints the request's trace, labelled with its tenant, kind and target —
  /// the one place the v1 and v2 paths start a trace.
  Traced begin_trace(api::AnyRequest& request, const Tenant& tenant);
  /// Evaluates one decoded frame on the reading thread (v1 frames, and v2
  /// frames in StreamMode::kOrdered): mints its trace, sends the held
  /// replies before the call can block, and records the outcome.
  api::Result<api::AnyResponse> call_inline(api::AnyRequest request, Writer& writer,
                                            Tenant& tenant);
  /// Submits one decoded v2 frame to the tenant's session; the slot
  /// callback writes the tagged reply and releases the in-flight tokens
  /// (the stream's, and the tenant's when it is capped).
  void submit_pipelined(api::AnyRequest request, std::uint64_t frame_id, Writer& writer,
                        Inflight& inflight, Tenant& tenant);
  /// Resolves a hello: "default" is the default tenant; an unknown name is
  /// provisioned with default quotas while fewer than kMaxAdhocTenants ad
  /// hoc tenants exist. Fails when a configured token does not match, or at
  /// that cap.
  api::Result<Tenant*> authenticate(const std::string& name, const std::string& token);
  /// Fills in a tenant record: its view and bound session over the shared
  /// store, its request counters and its cache cap. Registered tenants are
  /// provisioned under tenants_mutex_.
  void provision(Tenant& tenant, api::TenantContext context, const api::TenantQuota& quota);
  /// Creates (and registers) a tenant. Caller holds tenants_mutex_.
  Tenant& create_tenant_locked(const std::string& name, const api::TenantQuota& quota);
  [[nodiscard]] TenantSnapshot snapshot_tenants();
  /// The `cache-stats` and `cache stats` reply: the cache's counters, then a
  /// row per tenant ledger ("tenant <name>  entries ... hit-rate ...").
  [[nodiscard]] std::string render_cache_stats(const api::ResultCache& cache);
  static std::string describe_model(const api::ModelInfo& info);

  /// Resolves the per-kind counter handles for one tenant label value.
  KindCounters resolve_kind_counters(const char* name, const char* help,
                                     const std::string& tenant);
  /// Registers the collector that republishes every stats struct (executor,
  /// cache + per-tenant ledger, admission, stream, in-flight) through the
  /// registry on each render.
  void register_collector();
  /// Completes a request's trace and bumps the request/error/latency
  /// instruments. Idempotent per trace (Tracer::finish latches), so the
  /// pipelined callback and inline paths can't double-count a request.
  void observe_done(const Traced& traced, Tenant& tenant, bool ok);

  std::shared_ptr<api::ModelStore> store_;
  std::shared_ptr<api::Executor> executor_;
  Tenant default_tenant_;
  std::size_t max_inflight_;
  std::shared_ptr<api::AdmissionController> admission_;  ///< null = shedding off
  std::atomic<bool> shutdown_{false};
  std::mutex record_mutex_;
  int record_fd_ = -1;  ///< O_APPEND request log; -1 = recording off
  bool record_fsync_ = false;
  std::atomic<bool> record_suspended_{false};  ///< true while warming

  std::mutex tenants_mutex_;  ///< guards tenants_, next_tag_ and adhoc_tenants_
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::uint32_t next_tag_ = 1;  ///< 0 is the default tenant, never assigned
  std::size_t adhoc_tenants_ = 0;  ///< tenants created by a hello

  // --- observability ---------------------------------------------------------
  // Lock order: tenants_mutex_ (outer) before the registry mutex (inner), as
  // create_tenant_locked takes them. The collector reads the tenant table
  // through snapshot_tenants and holds no tenant lock in the registry.
  obs::MetricsRegistry registry_;
  obs::Tracer tracer_;
  std::array<obs::Histogram*, kKinds> latency_{};  ///< per-kind, all tenants
  /// Stream totals accumulated as each serve_stream returns (per-stream
  /// StreamStats stay the test surface; these are the service-lifetime sums
  /// the registry publishes).
  std::atomic<std::uint64_t> stream_frames_{0};
  std::atomic<std::uint64_t> stream_pipelined_{0};
  std::atomic<std::uint64_t> stream_backpressure_{0};
  std::atomic<std::uint64_t> stream_shed_{0};
};

}  // namespace spivar::service
