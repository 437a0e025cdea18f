#include "service/service.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <istream>
#include <ostream>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "corpus/spec.hpp"

namespace spivar::service {

Service::Service(const ServiceOptions& options)
    : store_(std::make_shared<api::ModelStore>()),
      executor_(api::make_executor(options.jobs)),
      max_inflight_(std::max<std::size_t>(options.max_inflight, 1)),
      tracer_(obs::TracerConfig{.ring = options.trace_ring,
                                .slow_threshold_us = options.trace_slow_us,
                                .log_path = options.trace_log}) {
  if (options.overload_miss_rate < 1.0) {
    // One controller for the whole service: overload is a property of the
    // shared executor, so every tenant (the default one included) sheds
    // against the same projection.
    admission_ = std::make_shared<api::AdmissionController>(
        api::AdmissionConfig{.max_miss_rate = options.overload_miss_rate,
                             .retry_after = options.overload_retry_after});
  }
  if (options.cache || !options.cache_dir.empty()) {
    api::CacheConfig config;
    config.capacity = options.cache.value_or(1024);
    // The service is the long-running front end, so let the cost window
    // tune itself to whatever workload the connections bring.
    config.adaptive_window = true;
    if (!options.cache_dir.empty()) {
      config.persist = persist::PersistConfig{
          .dir = options.cache_dir,
          .capacity_bytes = options.cache_bytes,
          .fsync_policy = options.fsync ? persist::PersistConfig::FsyncPolicy::kAlways
                                        : persist::PersistConfig::FsyncPolicy::kNever};
    }
    store_->enable_cache(config);
  }
  if (!options.record.empty()) {
    // POSIX append fd, one write() per frame: the log survives a killed
    // server frame-for-frame (no userspace buffering to lose), and
    // O_APPEND keeps concurrent connection threads' frames whole.
    record_fd_ = ::open(options.record.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (record_fd_ < 0) {
      std::cerr << "warning: cannot open record file '" << options.record << "'\n";
    }
    record_fsync_ = options.fsync;
  }
  // Hot-path instruments resolve once here; request threads only ever touch
  // the pre-resolved handles (one atomic add each), never the registry.
  // The default tenant's tag-0 view behaves like the pre-tenancy service
  // (unsalted identity, no quotas), but models() and raw-id lookups are
  // scoped to what it loaded — a no-hello client never observes another
  // tenant's models.
  provision(default_tenant_, {.name = "default", .tag = 0}, {});
  for (std::size_t k = 0; k < kKinds; ++k) {
    latency_[k] = &registry_.histogram(
        "spivar_request_latency_us", "end-to-end request latency in microseconds",
        {{"kind", api::to_string(static_cast<api::RequestKind>(k))}});
  }
  register_collector();
  // Configured tenants are provisioned after the cache exists, so their
  // entry caps land on the live cache immediately.
  for (const ServiceOptions::TenantSpec& spec : options.tenants) {
    if (spec.name.empty() || spec.name == "default") continue;  // tag 0 is implicit
    std::lock_guard lock{tenants_mutex_};
    if (!tenants_.contains(spec.name)) create_tenant_locked(spec.name, spec.quota);
  }
}

Service::KindCounters Service::resolve_kind_counters(const char* name, const char* help,
                                                     const std::string& tenant) {
  KindCounters counters{};
  for (std::size_t k = 0; k < kKinds; ++k) {
    counters[k] = &registry_.counter(
        name, help,
        {{"tenant", tenant}, {"kind", api::to_string(static_cast<api::RequestKind>(k))}});
  }
  return counters;
}

void Service::register_collector() {
  // Republishes every stats struct through the registry on each render(),
  // from one snapshot per source — the scrape can never disagree with the
  // `executor-stats`/`cache-stats` controls reading the same structs.
  // Get-or-create inside the collector is deliberate: it runs once per
  // scrape (the cold path) and picks up tenants provisioned after startup.
  registry_.add_collector([this] {
    const api::ExecutorStats ex = executor_->stats();
    const TenantSnapshot tenants = snapshot_tenants();
    registry_.counter("spivar_executor_completed_total", "tasks run to completion")
        .set(ex.completed);
    registry_.counter("spivar_executor_deadline_misses_total", "tasks finished past deadline")
        .set(ex.deadline_misses);
    registry_.gauge("spivar_executor_max_lateness_us", "worst single-task lateness")
        .set(ex.max_lateness.count());
    registry_.counter("spivar_executor_total_lateness_us", "summed lateness over every miss")
        .set(static_cast<std::uint64_t>(ex.total_lateness.count()));
    registry_.gauge("spivar_executor_workers", "executor worker threads")
        .set(static_cast<std::int64_t>(executor_->workers()));

    if (admission_) {
      registry_.counter("spivar_admission_admitted_total", "requests past admission control")
          .set(admission_->admitted());
      registry_.counter("spivar_admission_rejected_total", "requests shed by admission control")
          .set(admission_->rejected());
    }

    if (const auto cache = store_->cache()) {
      const api::CacheStats cs = cache->stats();
      registry_.counter("spivar_cache_hits_total", "lookups served from cache").set(cs.hits);
      registry_
          .counter("spivar_cache_misses_total",
                   "memory-tier misses, including lookups the disk tier then served")
          .set(cs.misses);
      registry_
          .counter("spivar_cache_evictions_total",
                   "memory-tier entries evicted, by cost-weighted LRU or a tenant cap")
          .set(cs.evictions);
      registry_.gauge("spivar_cache_entries", "results currently cached")
          .set(static_cast<std::int64_t>(cs.entries));
      registry_.gauge("spivar_cache_capacity", "memory-tier entry capacity")
          .set(static_cast<std::int64_t>(cs.capacity));
      registry_.counter("spivar_cache_saved_cost_us", "eval cost returned from hits")
          .set(cs.saved_cost_us);
      if (cs.persistent) {
        registry_.counter("spivar_cache_disk_hits_total", "memory misses served from disk")
            .set(cs.disk_hits);
        registry_.counter("spivar_cache_disk_misses_total", "memory misses that missed disk")
            .set(cs.disk_misses);
        registry_.counter("spivar_cache_disk_spills_total", "entries written to disk")
            .set(cs.disk_spills);
        registry_.counter("spivar_cache_disk_evictions_total", "disk entries deleted for capacity")
            .set(cs.disk_evictions);
        registry_.gauge("spivar_cache_disk_entries", "entry files on disk")
            .set(static_cast<std::int64_t>(cs.disk_entries));
        registry_.gauge("spivar_cache_disk_bytes", "bytes on disk")
            .set(static_cast<std::int64_t>(cs.disk_bytes));
        registry_.gauge("spivar_cache_spill_queue_depth", "async spills queued")
            .set(static_cast<std::int64_t>(cs.disk_queue_depth));
        registry_.counter("spivar_cache_spill_dropped_total", "spills dropped at a full queue")
            .set(cs.disk_dropped_spills);
      }
      // Per-tenant ledger, labeled by tenant *name* (the tag is internal).
      for (const auto& [name, row] : tenants.cache) {
        registry_.counter("spivar_tenant_cache_hits_total", "tenant lookups served",
                          {{"tenant", name}})
            .set(row.hits);
        registry_.counter("spivar_tenant_cache_misses_total", "tenant lookups that evaluated",
                          {{"tenant", name}})
            .set(row.misses);
        registry_.counter("spivar_tenant_cache_evictions_total",
                          "tenant entries dropped for capacity", {{"tenant", name}})
            .set(row.evictions);
        registry_.gauge("spivar_tenant_cache_entries", "tenant entries currently held",
                        {{"tenant", name}})
            .set(static_cast<std::int64_t>(row.entries));
      }
    }

    for (const TenantRow& tenant : tenants.tenants) {
      registry_.gauge("spivar_tenant_inflight", "v2 slots evaluating now",
                      {{"tenant", tenant.name}})
          .set(static_cast<std::int64_t>(tenant.inflight));
      registry_.counter("spivar_tenant_shed_total", "frames rejected at the in-flight cap",
                        {{"tenant", tenant.name}})
          .set(tenant.shed);
    }

    registry_.counter("spivar_stream_frames_total", "frames read across all streams")
        .set(stream_frames_.load(std::memory_order_relaxed));
    registry_.counter("spivar_stream_pipelined_total", "v2 request frames submitted")
        .set(stream_pipelined_.load(std::memory_order_relaxed));
    registry_
        .counter("spivar_stream_backpressure_waits_total", "reader stalls at max_inflight")
        .set(stream_backpressure_.load(std::memory_order_relaxed));
    registry_.counter("spivar_stream_shed_total", "v2 frames rejected at a tenant cap")
        .set(stream_shed_.load(std::memory_order_relaxed));
    registry_.counter("spivar_traces_minted_total", "request traces minted")
        .set(tracer_.minted());
  });
}

Service::Traced Service::begin_trace(api::AnyRequest& request, const Tenant& tenant) {
  const api::RequestKind kind = api::kind_of(request);
  request.trace = tracer_.begin(tenant.context.name, api::to_string(kind), request.target);
  return {request.trace, kind};
}

void Service::observe_done(const Traced& traced, Tenant& tenant, bool ok) {
  const auto total_us = tracer_.finish(traced.trace, ok);
  if (!total_us) return;  // finish() latched earlier — already counted
  const auto k = static_cast<std::size_t>(traced.kind);
  tenant.requests[k]->add();
  if (!ok) tenant.errors[k]->add();
  latency_[k]->record(*total_us);
}

void Service::provision(Tenant& tenant, api::TenantContext context,
                        const api::TenantQuota& quota) {
  tenant.context = std::move(context);
  tenant.quota = quota;
  tenant.view = std::make_shared<api::StoreView>(store_, tenant.context, quota);
  tenant.session = std::make_shared<api::Session>(store_, executor_);
  tenant.session->bind_tenant(tenant.view, admission_);
  tenant.requests =
      resolve_kind_counters("spivar_requests_total", "requests completed", tenant.context.name);
  tenant.errors = resolve_kind_counters("spivar_request_errors_total",
                                        "requests completed with a failure result",
                                        tenant.context.name);
  if (quota.max_cache_entries > 0) {
    if (const auto cache = store_->cache()) {
      cache->set_tenant_cap(tenant.context.tag, quota.max_cache_entries);
    }
  }
}

Service::Tenant& Service::create_tenant_locked(const std::string& name,
                                               const api::TenantQuota& quota) {
  auto tenant = std::make_unique<Tenant>();
  provision(*tenant, {.name = name, .tag = next_tag_++}, quota);
  return *tenants_.emplace(name, std::move(tenant)).first->second;
}

api::Result<Service::Tenant*> Service::authenticate(const std::string& name,
                                                   const std::string& token) {
  using Bound = api::Result<Tenant*>;
  if (name == "default") return Bound::success(&default_tenant_);
  std::lock_guard lock{tenants_mutex_};
  Tenant* tenant = nullptr;
  if (const auto it = tenants_.find(name); it != tenants_.end()) {
    tenant = it->second.get();
  } else if (adhoc_tenants_ < kMaxAdhocTenants) {
    // Ad hoc tenants get default (unlimited) quotas — isolation without
    // provisioning. Only configured tenants carry tokens, so nothing
    // protected is reachable this way.
    ++adhoc_tenants_;
    tenant = &create_tenant_locked(name, {});
  } else {
    // Each tenant keeps a session, counters and metric series for the
    // service's lifetime, so new names stop at the cap.
    return Bound::failure(api::diag::kWireError,
                          "no room for tenant '" + name + "': the service holds at most " +
                              std::to_string(kMaxAdhocTenants) + " ad hoc tenants");
  }
  if (!tenant->quota.token.empty() && tenant->quota.token != token) {
    return Bound::failure(api::diag::kWireError, "invalid token for tenant '" + name + "'");
  }
  return Bound::success(tenant);
}

Service::~Service() {
  if (record_fd_ >= 0) ::close(record_fd_);
}

void Service::Writer::write(std::string_view frame) {
  std::lock_guard lock{mutex};
  out << frame;
  held = std::this_thread::get_id() == reader;
  if (!held) out.flush();
}

void Service::Writer::flush() {
  std::lock_guard lock{mutex};
  if (!held) return;
  out.flush();
  held = false;
}

void Service::Inflight::release() {
  std::lock_guard lock{mutex};
  --count;
  drained.notify_all();
}

void Service::warm(std::istream& in) {
  const auto before = store_->cache_stats();
  record_suspended_.store(true, std::memory_order_release);
  std::ostream null{nullptr};
  // Ordered evaluation keeps warming deterministic even when the log holds
  // pipelined traffic (the recorded per-connection submission order is the
  // order the cache tiers fill in).
  serve_stream(in, null, StreamMode::kOrdered);
  record_suspended_.store(false, std::memory_order_release);
  shutdown_.store(false, std::memory_order_release);
  const auto after = store_->cache_stats();
  if (before && after) {
    std::cerr << "warmed: " << (after->entries - before->entries) << " entries in memory, "
              << after->disk_entries << " on disk (" << after->disk_hits
              << " served from disk)\n";
  }
}

namespace {

/// The typed reply for a frame rejected at a tenant's in-flight cap: same
/// diagnostic code and "retry-after-ms N" hint shape as admission shedding,
/// so clients handle both overload paths with one parser.
api::Result<api::AnyResponse> tenant_cap_failure(const std::string& tenant, std::size_t cap) {
  return api::Result<api::AnyResponse>::failure(
      api::diag::kOverload, "tenant '" + tenant + "' is at its in-flight cap (" +
                                std::to_string(cap) + "); retry-after-ms 10");
}

/// The service loads registry models only: a curated builtin or a `sweep/`
/// corpus name. Any other target would be opened as a path on the server's
/// filesystem, so it is refused here, before it reaches a session. The
/// prefix is checked first and nothing is minted, so a request pays a few
/// string compares.
std::optional<support::DiagnosticList> refuse(std::string_view target) {
  if (corpus::is_corpus_name(target)) return std::nullopt;
  for (const api::BuiltinModel& builtin : api::builtin_models()) {
    if (builtin.name == target) return std::nullopt;
  }
  support::DiagnosticList diagnostics;
  diagnostics.error(api::diag::kUnknownBuiltin,
                    "no built-in model '" + std::string{target} +
                        "' (the service loads registry and sweep/ names only)");
  return diagnostics;
}

/// Decodes a request frame and refuses a target that names no registry
/// model, so a refusal travels every path a decode error does.
api::Result<api::AnyRequest> decode(const std::string& frame) {
  api::Result<api::AnyRequest> request = api::wire::decode_request(frame);
  if (!request.ok() || request.value().target.empty()) return request;
  if (auto refused = refuse(request.value().target)) {
    return api::Result<api::AnyRequest>::failure(std::move(*refused));
  }
  return request;
}

}  // namespace

StreamStats Service::serve_stream(std::istream& in, std::ostream& out, StreamMode mode) {
  Writer writer{out};
  Inflight inflight;
  StreamStats stats;
  // The stream starts on the default tenant; a hello frame re-binds it.
  // Tenants live as long as the service, so the pointer stays valid for the
  // loop's lifetime.
  Tenant* tenant = &default_tenant_;
  const std::function<void()> flush = [&writer] { writer.flush(); };
  api::wire::FrameLimit limit{.max_bytes = kMaxFrameBytes};
  while (!shutdown_requested()) {
    // Held replies go out before any read that could block, including the
    // rest of a frame that is only partly buffered.
    const auto frame = api::wire::read_frame(in, flush, &limit);
    if (!frame) break;
    ++stats.frames;
    try {
      // One tokenization of the header line picks the handler: a request
      // frame never runs the service-frame parsers, and any other tag
      // (malformed frames included) tries them in turn, then falls through
      // to the request path's error reply.
      const api::wire::FrameHead head = api::wire::peek_head(*frame);
      if (limit.exceeded) {
        // Read through its `end` but neither stored nor recorded: one
        // error reply, tagged when the header line carried a v2 id.
        const auto refused = api::Result<api::AnyResponse>::failure(
            api::diag::kWireError,
            "frame over the limit of " + std::to_string(kMaxFrameBytes) + " bytes");
        writer.write(head.request_id ? api::wire::encode(refused, *head.request_id)
                                     : api::wire::encode(refused));
        continue;
      }
      record_frame(*frame);
      if (head.tag != "request") {
        if (const auto hello = api::wire::parse_hello(*frame)) {
          // A refused hello leaves the stream on its current tenant.
          const api::Result<Tenant*> bound = authenticate(hello->tenant, hello->token);
          if (!bound.ok()) {
            reply_error(writer, bound.diagnostics());
            continue;
          }
          tenant = bound.value();
          reply_info(writer, "hello tenant " + hello->tenant + " tag " +
                                 std::to_string(tenant->context.tag));
          continue;
        }
        if (const auto control = api::wire::parse_control(*frame)) {
          writer.flush();
          handle_control(*control, writer, *tenant);
          continue;
        }
      }
      const std::optional<std::uint64_t> frame_id = head.request_id;
      if (!frame_id.has_value()) {
        // v1 (or a header too rotten to carry an id): strict arrival order,
        // evaluated inline — a v1-only client sees exactly the v1 service.
        api::Result<api::AnyRequest> request = decode(*frame);
        writer.write(api::wire::encode(
            request.ok() ? call_inline(std::move(request).value(), writer, *tenant)
                         : api::Result<api::AnyResponse>::failure(request.diagnostics())));
        continue;
      }
      ++stats.pipelined;
      // Backpressure: stop consuming the socket while max_inflight slots
      // are evaluating. The client's unread bytes accumulate in the kernel
      // buffers until its own writes stall — no server-side request queue
      // to grow without bound.
      {
        std::unique_lock lock{inflight.mutex};
        if (inflight.count >= max_inflight_) {
          ++stats.backpressure_waits;
          lock.unlock();
          writer.flush();
          lock.lock();
          inflight.drained.wait(lock, [&] { return inflight.count < max_inflight_; });
        }
        ++inflight.count;
      }
      api::Result<api::AnyRequest> request = decode(*frame);
      // A frame answered on this thread replies here and hands its token
      // back; every other one is submitted and its slot callback does both.
      std::optional<api::Result<api::AnyResponse>> reply;
      if (!request.ok()) {
        // Line-numbered decode error (or a refused target), tagged with the
        // frame's id, and the connection lives on — one malformed frame
        // costs one reply.
        reply = api::Result<api::AnyResponse>::failure(request.diagnostics());
      } else if (mode == StreamMode::kOrdered) {
        // --replay/--warm: evaluate inline so the reply order (and the
        // cache fill order) reproduces the recorded submission order
        // byte-for-byte; the reply still carries its v2 tag.
        reply = call_inline(std::move(request).value(), writer, *tenant);
      } else if (tenant->quota.max_inflight > 0 &&
                 tenant->inflight.fetch_add(1, std::memory_order_acq_rel) >=
                     tenant->quota.max_inflight) {
        // The tenant's cap composes with the stream cap above — but where
        // the stream cap *blocks* (backpressure to this client only), the
        // tenant cap *rejects*: blocking here would let one capped tenant
        // hold reader threads hostage while other tenants' frames queue
        // behind it. fetch_add-then-check keeps the cap exact across the
        // tenant's concurrent connections.
        tenant->inflight.fetch_sub(1, std::memory_order_acq_rel);
        tenant->shed.fetch_add(1, std::memory_order_relaxed);
        ++stats.shed;
        reply = tenant_cap_failure(tenant->context.name, tenant->quota.max_inflight);
      }
      if (reply) {
        writer.write(api::wire::encode(*reply, *frame_id));
        inflight.release();
        continue;
      }
      submit_pipelined(std::move(request).value(), *frame_id, writer, inflight, *tenant);
    } catch (const std::exception& e) {
      reply_error(writer, std::string{"internal error handling frame: "} + e.what());
    }
  }
  // EOF or shutdown: nothing stays held while the in-flight slots drain
  // (their replies flush as they land).
  writer.flush();
  // The writer, the inflight counter and the stream live on this stack
  // frame: every slot callback must have fired before returning (shutdown
  // included — the executor keeps draining submitted work).
  std::unique_lock lock{inflight.mutex};
  inflight.drained.wait(lock, [&] { return inflight.count == 0; });
  stream_frames_.fetch_add(stats.frames, std::memory_order_relaxed);
  stream_pipelined_.fetch_add(stats.pipelined, std::memory_order_relaxed);
  stream_backpressure_.fetch_add(stats.backpressure_waits, std::memory_order_relaxed);
  stream_shed_.fetch_add(stats.shed, std::memory_order_relaxed);
  return stats;
}

api::Result<api::AnyResponse> Service::call_inline(api::AnyRequest request, Writer& writer,
                                                   Tenant& tenant) {
  const Traced traced = begin_trace(request, tenant);
  writer.flush();
  api::Result<api::AnyResponse> result = tenant.session->call(request);
  observe_done(traced, tenant, result.ok());
  return result;
}

void Service::submit_pipelined(api::AnyRequest request, std::uint64_t frame_id, Writer& writer,
                               Inflight& inflight, Tenant& tenant) {
  Traced traced = begin_trace(request, tenant);
  std::vector<api::AnyRequest> one;
  one.push_back(std::move(request));
  // The handle is deliberately discarded: the slot's task keeps the batch
  // state alive, the callback below is the delivery path, and serve_stream
  // drains the inflight count before its stack (writer, inflight) unwinds.
  // The tenant outlives the stream, so the callback holds it by reference
  // and never co-owns its session (or, through it, the executor).
  (void)tenant.session->submit(
      std::move(one),
      [this, &writer, &inflight, &tenant, frame_id, traced = std::move(traced)](
          std::size_t, const api::Result<api::AnyResponse>& result, std::string_view frame) {
        // Trace completion before the reply streams: by the time the client
        // reads the frame (or serve_stream returns), the record is in the
        // ring and every counter reflects this request.
        observe_done(traced, tenant, result.ok());
        // A cached result's stored frame, retagged, is the reply: a hit
        // (delivered on this stream's reading thread, where the write is
        // held) is never encoded again.
        writer.write(frame.empty() ? api::wire::encode(result, frame_id)
                                   : api::wire::retag(frame, frame_id));
        if (tenant.quota.max_inflight > 0) {
          tenant.inflight.fetch_sub(1, std::memory_order_acq_rel);
        }
        inflight.release();
      });
}

void Service::record_frame(const std::string& frame) {
  if (record_fd_ < 0 || record_suspended_.load(std::memory_order_acquire)) return;
  std::lock_guard lock{record_mutex_};
  // Frame + separating blank line in ONE write(): a kill between frames
  // leaves a log of whole frames (and read_frame tolerates a torn tail).
  // v2 frames are recorded verbatim — ids included — in the order the
  // reader pulled them off the socket, so a replay reproduces each
  // connection's submission order even for pipelined traffic.
  std::string chunk = frame;
  chunk += "\n";
  const char* data = chunk.data();
  std::size_t left = chunk.size();
  while (left > 0) {
    const ssize_t wrote = ::write(record_fd_, data, left);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      std::cerr << "warning: record write failed: " << std::strerror(errno) << "\n";
      break;
    }
    data += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
  if (record_fsync_) ::fsync(record_fd_);
}

void Service::reply_info(Writer& writer, const std::string& text) {
  writer.write(api::wire::encode_info(text));
}

void Service::reply_error(Writer& writer, const support::DiagnosticList& diagnostics) {
  writer.write(api::wire::encode(api::Result<api::AnyResponse>::failure(diagnostics)));
}

void Service::reply_error(Writer& writer, const std::string& message) {
  support::DiagnosticList diagnostics;
  diagnostics.error(api::diag::kWireError, message);
  reply_error(writer, diagnostics);
}

std::string Service::describe_model(const api::ModelInfo& info) {
  // render(ModelInfo) plus a content-fingerprint line: the restart-stable
  // identity (what the persistent cache tier keys on), exposed so wire
  // clients can correlate models across server lives.
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(info.content_fingerprint));
  return api::render(info) + "  content-fingerprint " + hex + "\n";
}

Service::TenantSnapshot Service::snapshot_tenants() {
  const auto cache = store_->cache();
  TenantSnapshot snapshot;
  std::lock_guard lock{tenants_mutex_};
  std::map<std::uint32_t, const std::string*> names;
  for (const auto& [name, tenant] : tenants_) {
    snapshot.tenants.push_back(
        {.name = name,
         .inflight = tenant->inflight.load(std::memory_order_relaxed),
         .max_inflight = tenant->quota.max_inflight,
         .shed = tenant->shed.load(std::memory_order_relaxed)});
    names[tenant->context.tag] = &name;
  }
  if (cache) {
    for (const api::TenantCacheStats& row : cache->tenant_stats()) {
      const auto it = names.find(row.tag);
      snapshot.cache.emplace_back(it != names.end() ? *it->second : "#" + std::to_string(row.tag),
                                  row);
    }
  }
  return snapshot;
}

std::string Service::render_cache_stats(const api::ResultCache& cache) {
  std::string text = api::render(cache.stats());
  for (const auto& [name, row] : snapshot_tenants().cache) {
    char rate[16];
    std::snprintf(rate, sizeof rate, "%.3f", row.hit_rate());
    text += "tenant " + name + "  entries " + std::to_string(row.entries) +
            (row.cap > 0 ? "/" + std::to_string(row.cap) : "") + "  hits " +
            std::to_string(row.hits) + "  misses " + std::to_string(row.misses) +
            "  evictions " + std::to_string(row.evictions) + "  hit-rate " + rate + "\n";
  }
  return text;
}

void Service::handle_cache_control(const api::wire::ControlCommand& control, Writer& writer) {
  const auto cache = store_->cache();
  if (!cache) {
    reply_error(writer, "result cache disabled (start with '--cache N' or '--cache-dir DIR')");
    return;
  }
  const std::string sub = control.args.empty() ? std::string{"stats"} : control.args.front();
  if (sub == "stats") {
    reply_info(writer, render_cache_stats(*cache));
    return;
  }
  if (sub == "persist") {
    if (!cache->persistent()) {
      reply_error(writer,
                  "'cache persist' needs a persistent tier (start with '--cache-dir DIR')");
      return;
    }
    const std::size_t written = cache->persist_all();
    const api::CacheStats stats = cache->stats();
    reply_info(writer, "persisted " + std::to_string(written) + " entries (" +
                           std::to_string(stats.disk_entries) + " on disk, " +
                           std::to_string(stats.disk_bytes) + " bytes)");
    return;
  }
  if (sub == "flush") {
    cache->clear(/*include_disk=*/true);
    reply_info(writer, cache->persistent() ? "cache cleared (memory + disk)" : "cache cleared");
    return;
  }
  reply_error(writer, "unknown cache subcommand '" + sub + "' (expected stats|persist|flush)");
}

void Service::handle_control(const api::wire::ControlCommand& control, Writer& writer,
                             Tenant& tenant) {
  api::Session& session = *tenant.session;
  if (control.command == "ping") {
    reply_info(writer, "pong");
    return;
  }
  if (control.command == "shutdown") {
    shutdown_.store(true, std::memory_order_release);
    // The graceful half of shutdown happens before the reply: queued spills
    // drained and the memory tier persisted, so an orchestrated stop loses
    // nothing even if the process is killed right after the frame flushes.
    finish();
    reply_info(writer, "shutting down");
    writer.flush();  // on_shutdown may close this very socket
    if (on_shutdown) on_shutdown();
    return;
  }
  if (control.command == "models") {
    std::string text;
    for (const api::ModelInfo& info : session.models()) {
      text += "#" + std::to_string(info.id.value()) + " " + describe_model(info);
    }
    reply_info(writer, text.empty() ? "no models loaded" : text);
    return;
  }
  if (control.command == "cache-stats") {
    const auto cache = store_->cache();
    reply_info(writer, cache ? render_cache_stats(*cache)
                             : "result cache disabled (start with '--cache N')");
    return;
  }
  if (control.command == "cache") {
    handle_cache_control(control, writer);
    return;
  }
  if (control.command == "executor-stats") {
    std::string text =
        "executor " + executor_->name() + "\n" + api::render(session.executor_stats());
    if (admission_) {
      text += "admission admitted " + std::to_string(admission_->admitted()) + "  rejected " +
              std::to_string(admission_->rejected()) + "\n";
    }
    for (const TenantRow& row : snapshot_tenants().tenants) {
      text += "tenant " + row.name + "  inflight " + std::to_string(row.inflight);
      if (row.max_inflight > 0) text += "/" + std::to_string(row.max_inflight);
      text += "  shed " + std::to_string(row.shed) + "\n";
    }
    reply_info(writer, text);
    return;
  }
  if (control.command == "load") {
    if (control.args.empty()) {
      reply_error(writer, "'load' requires a model spec");
      return;
    }
    if (const auto refused = refuse(control.args.front())) {
      reply_error(writer, *refused);
      return;
    }
    const std::vector<std::string> options(control.args.begin() + 1, control.args.end());
    const auto resolved = session.resolve(control.args.front(), options);
    if (!resolved.ok()) {
      reply_error(writer, resolved.diagnostics());
      return;
    }
    reply_info(writer, "#" + std::to_string(resolved.value().id.value()) + " " +
                           describe_model(resolved.value()));
    return;
  }
  if (control.command == "metrics") {
    // The same text the --metrics-port endpoint serves, over the wire —
    // scrapeable through an existing connection, no extra port needed.
    reply_info(writer, metrics_text());
    return;
  }
  if (control.command == "trace") {
    const std::string sel = control.args.empty() ? std::string{"last"} : control.args.front();
    std::optional<obs::TraceRecord> record;
    if (sel == "last") {
      record = tracer_.last();
    } else if (sel == "slowest") {
      record = tracer_.slowest();
    } else {
      char* end = nullptr;
      const unsigned long long id = std::strtoull(sel.c_str(), &end, 10);
      if (end == sel.c_str() || *end != '\0') {
        reply_error(writer,
                    "unknown trace selector '" + sel + "' (expected last|slowest|<id>)");
        return;
      }
      record = tracer_.find(id);
      if (!record) {
        reply_error(writer, "no trace " + sel + " in the ring (it keeps recent completions)");
        return;
      }
    }
    if (!record) {
      reply_error(writer, "no completed traces yet");
      return;
    }
    reply_info(writer, obs::render(*record));
    return;
  }
  if (control.command == "unload") {
    if (control.args.size() != 1) {
      reply_error(writer, "'unload' requires exactly one model spec");
      return;
    }
    const std::vector<api::ModelId> handles = session.resolved_handles(control.args.front());
    if (handles.empty()) {
      reply_info(writer, control.args.front() + ": " +
                             api::to_string(api::UnloadStatus::kNeverLoaded) +
                             " (no request loaded it)");
      return;
    }
    std::string text;
    for (const api::ModelId handle : handles) {
      text += control.args.front() + " #" + std::to_string(handle.value()) + ": " +
              api::to_string(session.unload(handle)) + "\n";
    }
    reply_info(writer, text);
    return;
  }
  reply_error(writer, "unknown control command '" + control.command + "'");
}

void Service::finish() {
  if (const auto cache = store_->cache()) {
    cache->drain_spills();
    if (cache->persistent()) cache->persist_all();
  }
}

}  // namespace spivar::service
