#include "serve/serve.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

#include "chip/generator.hpp"
#include "chip/io.hpp"
#include "pacor/eco.hpp"
#include "pacor/escape.hpp"
#include "pacor/solution_io.hpp"
#include "util/sha256.hpp"

namespace pacor::serve {

namespace {

unsigned poolSize(int jobs) {
  const int resolved = jobs == 0 ? static_cast<int>(util::hardwareJobs()) : jobs;
  return static_cast<unsigned>(std::max(1, resolved));
}

/// True when two configs produce byte-identical routed output, so a result
/// cached under one can serve as the ECO base under the other. Every
/// output-affecting knob is compared; jobs is excluded by the pipeline's
/// bit-identity contract.
bool configsEquivalent(const core::PacorConfig& a, const core::PacorConfig& b) {
  return a.candidates.count == b.candidates.count &&
         a.candidates.ringSearchRadius == b.candidates.ringSearchRadius &&
         a.lambda == b.lambda && a.useSelection == b.useSelection &&
         a.exactSelectionLimit == b.exactSelectionLimit &&
         a.negotiation.baseHistoryCost == b.negotiation.baseHistoryCost &&
         a.negotiation.alpha == b.negotiation.alpha &&
         a.negotiation.maxIterations == b.negotiation.maxIterations &&
         a.detourIterations == b.detourIterations &&
         a.useBoundedDetour == b.useBoundedDetour &&
         a.detourStage == b.detourStage &&
         a.maxEscapeRounds == b.maxEscapeRounds &&
         a.escapeMode == b.escapeMode &&
         a.matchingRetries == b.matchingRetries &&
         a.legalizeRadius == b.legalizeRadius;
}

bool cancelled(const std::shared_ptr<std::atomic<bool>>& cancel) {
  return cancel != nullptr && cancel->load(std::memory_order_relaxed);
}

/// Response fields + side files every successful routing request shares.
void fillRouteResponse(Response& resp, const core::PacorResult& result,
                       const RequestOptions& options) {
  resp.complete = result.complete;
  resp.solutionText = core::solutionToString(result);
  resp.solutionHash = util::sha256Hex(resp.solutionText);
  resp.clusterCount = result.clusters.size();
  resp.totalLength = result.totalChannelLength;
  resp.coldBuilds =
      static_cast<int>(result.metrics.getInt("escape.flow.cold_builds", -1));
  resp.ok = true;
  // No side files for a cancelled (watchdog-abandoned) request: the caller
  // was already answered with a deadline error, so a write here could only
  // clobber the output of a retry racing this discarded execution.
  if (cancelled(options.cancel)) return;
  if (!options.solutionPath.empty())
    core::writeSolutionFile(options.solutionPath, result);
  if (!options.metricsPath.empty()) {
    std::ofstream os(options.metricsPath);
    os << "{\n  \"design\": \"" << result.design << "\",\n  \"metrics\": "
       << result.metrics.toJson(/*pretty=*/true) << "\n}\n";
    if (!os) {
      resp.ok = false;
      resp.error = "cannot write metrics file " + options.metricsPath;
    }
  }
}

}  // namespace

namespace {

/// Close-on-scope-exit for raw fds (the read paths below throw).
struct FdGuard {
  int fd;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
};

/// Chunked regular-file read, checking the cancel flag between chunks so
/// an expired request stops holding its dispatcher on a large/slow file.
std::string readFileCancellable(
    const std::string& path, const std::shared_ptr<std::atomic<bool>>& cancel) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    throw std::runtime_error("cannot read chip file " + path + ": " +
                             std::strerror(errno));
  FdGuard guard{fd};
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    if (cancelled(cancel))
      throw LoadError("deadline", "design load cancelled: " + path);
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("cannot read chip file " + path + ": " +
                               std::strerror(errno));
    }
    if (r == 0) return bytes;
    bytes.append(buf, static_cast<std::size_t>(r));
  }
}

/// TEST-ONLY FIFO path: parks until a writer supplies the chip bytes,
/// polling the cancel flag. Opened O_RDONLY|O_NONBLOCK so the open never
/// blocks; a read of 0 before any byte means "no writer yet" (FIFO
/// semantics), not EOF -- EOF is a 0 read after at least one byte.
std::string readFifoCancellable(
    const std::string& path, const std::shared_ptr<std::atomic<bool>>& cancel) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  if (fd < 0)
    throw std::runtime_error("cannot open fifo design " + path + ": " +
                             std::strerror(errno));
  FdGuard guard{fd};
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    if (cancelled(cancel))
      throw LoadError("deadline", "design load cancelled: " + path);
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r > 0) {
      bytes.append(buf, static_cast<std::size_t>(r));
      continue;
    }
    if (r == 0 && !bytes.empty()) return bytes;  // writer closed after data
    if (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
      throw std::runtime_error("cannot read fifo design " + path + ": " +
                               std::strerror(errno));
    // No writer yet (r==0 with nothing read) or momentarily empty: park.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

chip::Chip loadDesign(const std::string& token, const LoadOptions& options) {
  // FPVA spec tokens (fpva:NxM[:key=val...]) synthesize valve arrays on
  // demand; the spec string is the cache key, so repeat requests for the
  // same array hit the warm DesignContext.
  if (chip::isFpvaSpec(token))
    return chip::generateFpvaChip(chip::parseFpvaSpec(token));
  for (const auto& params : chip::table1Designs())
    if (params.name == token) return chip::generateChip(params);
  // Stat gate: only regular files are read as .chip paths. A FIFO (or a
  // directory, or a device node) would block the dispatcher or feed it
  // garbage; reject it with a structured err instead. Missing paths fall
  // through to the plain error path below, keeping the old message.
  struct stat st {};
  if (::stat(token.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    if (S_ISFIFO(st.st_mode) && options.allowFifoDesigns) {
      std::istringstream is(readFifoCancellable(token, options.cancel));
      return chip::readChip(is);
    }
    const char* kind = S_ISFIFO(st.st_mode)  ? "a fifo"
                       : S_ISDIR(st.st_mode) ? "a directory"
                       : S_ISCHR(st.st_mode) || S_ISBLK(st.st_mode)
                           ? "a device node"
                           : "not a regular file";
    throw LoadError("design",
                    "design path " + token + " is " + kind +
                        ", not a regular .chip file");
  }
  std::istringstream is(readFileCancellable(token, options.cancel));
  return chip::readChip(is);
}

chip::Chip loadDesign(const std::string& token) {
  return loadDesign(token, LoadOptions{});
}

DesignContext::DesignContext(chip::Chip chip)
    : chip_(std::move(chip)),
      obstacleTemplate_(core::makeRoutingObstacleTemplate(chip_)) {}

DesignContext::~DesignContext() = default;

Server::Server(int jobs) : pool_(poolSize(jobs)) {}

Server::~Server() { drainAndStop(); }

std::shared_ptr<DesignContext> Server::context(
    const std::string& key, const std::function<chip::Chip()>& load) {
  {
    std::lock_guard<std::mutex> lock(contextsMutex_);
    auto it = contexts_.find(key);
    if (it != contexts_.end()) {
      // O(1) LRU touch: splice the key to the most-recent end.
      lru_.splice(lru_.begin(), lru_, it->second.lruIt);
      return it->second.ctx;
    }
  }
  // Load WITHOUT the cache lock: a slow or parked load of one design must
  // never block lookups (or loads) of another. Two first-touch loads of
  // the same key can race; the first insert wins and the loser's copy is
  // dropped -- both are built from the same token, so either is correct.
  auto fresh = std::make_shared<DesignContext>(load());
  std::lock_guard<std::mutex> lock(contextsMutex_);
  auto it = contexts_.find(key);
  if (it != contexts_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lruIt);
    return it->second.ctx;
  }
  lru_.push_front(key);
  contexts_.emplace(key, ContextEntry{fresh, lru_.begin()});
  maybeEvictLocked();
  return fresh;
}

/// Evicts least-recently-used, unpinned contexts until the cache fits
/// AdmissionOptions::maxDesigns. Pinned entries (use_count > 1: some
/// request is executing against them, or a caller holds the shared_ptr)
/// are skipped, so the resident count can transiently exceed the bound by
/// the number of in-flight designs -- eviction never races a route.
/// Caller holds contextsMutex_.
void Server::maybeEvictLocked() {
  const std::size_t cap = maxDesigns_.load(std::memory_order_relaxed);
  if (cap == 0) return;  // unlimited
  auto it = lru_.end();
  while (contexts_.size() > cap && it != lru_.begin()) {
    --it;
    auto entry = contexts_.find(*it);
    if (entry == contexts_.end()) {  // should not happen; keep lru_ sane
      it = lru_.erase(it);
      continue;
    }
    // use_count()==1 means the map holds the only reference: no request
    // is pinned on it. New pins are minted only under contextsMutex_
    // (this lock), so the check cannot race a fresh pin.
    if (entry->second.ctx.use_count() > 1) continue;
    contexts_.erase(entry);
    it = lru_.erase(it);
    ++evictions_;
  }
}

bool Server::hasContext(const std::string& key) const {
  std::lock_guard<std::mutex> lock(contextsMutex_);
  return contexts_.count(key) != 0;
}

std::size_t Server::designCount() const {
  std::lock_guard<std::mutex> lock(contextsMutex_);
  return contexts_.size();
}

Server::Stats Server::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(queueMutex_);
    s.deadlineExpired = deadlineExpired_;
    s.dispatcherRecycles = dispatcherRecycles_;
  }
  {
    std::lock_guard<std::mutex> lock(contextsMutex_);
    s.evictions = evictions_;
  }
  return s;
}

Response Server::route(DesignContext& ctx, const RequestOptions& options) {
  Response resp;
  resp.design = ctx.chip().name;

  // Trace ownership is serialized explicitly: a traced request waits for
  // every in-flight request to drain and runs alone, so its session is
  // neither superseded mid-flight nor polluted by concurrent requests'
  // spans. Untraced requests share the fence and run concurrently.
  const bool traced = !options.tracePath.empty();
  std::shared_lock<std::shared_mutex> shared(traceFence_, std::defer_lock);
  std::unique_lock<std::shared_mutex> exclusive(traceFence_, std::defer_lock);
  if (traced)
    exclusive.lock();
  else
    shared.lock();

  if (traced) ctx.traceSession().begin(options.traceLevel);
  // The chip and template must stay put while this request routes; eco()
  // takes the same lock exclusively to swap them.
  std::shared_lock<std::shared_mutex> state(ctx.stateMutex_);
  // One request at a time drives the persistent escape session; losers of
  // the try-lock route through a request-local session (byte-identical,
  // just without the cross-request warm start). Requests arriving through
  // the submit() queue are serialized per design, so they always win.
  std::unique_lock<std::mutex> sessionLock(ctx.escapeMutex_, std::try_to_lock);
  try {
    core::RouteResources resources;
    resources.pool = &pool_;
    resources.obstacleTemplate = &ctx.obstacleTemplate_;
    if (sessionLock.owns_lock()) resources.escapeSession = &ctx.escapeSession_;
    const core::PacorResult result =
        core::routeChip(ctx.chip_, options.config, resources);
    fillRouteResponse(resp, result, options);
    std::lock_guard<std::mutex> cache(ctx.cacheMutex_);
    ctx.lastResult_ = result;
    ctx.lastConfig_ = options.config;
    ctx.hasLast_ = true;
  } catch (const std::exception& e) {
    resp.ok = false;
    resp.error = e.what();
  }

  if (traced) {
    const std::vector<trace::Event> events = ctx.traceSession().end();
    // Belt and braces: the fence makes supersession impossible here, but a
    // discarded trace must be reported, never returned as "empty".
    if (ctx.traceSession().superseded()) {
      resp.traceDiscarded = true;
      resp.ok = false;
      if (!resp.error.empty()) resp.error += "; ";
      resp.error += "trace discarded: session superseded by a concurrent request";
    } else {
      resp.traceSpans = static_cast<int>(events.size());
      if (!trace::writeChromeTrace(options.tracePath, events)) {
        resp.ok = false;
        if (!resp.error.empty()) resp.error += "; ";
        resp.error += "cannot write trace file " + options.tracePath;
      }
    }
  }
  return resp;
}

Response Server::route(const std::string& key, const chip::Chip& chip,
                       const RequestOptions& options) {
  // The shared_ptr is the pin: the context cannot be evicted-and-freed
  // while this request routes against it.
  const std::shared_ptr<DesignContext> ctx = context(key, [&] { return chip; });
  return route(*ctx, options);
}

Response Server::eco(DesignContext& ctx, const chip::ChipDelta& delta,
                     const RequestOptions& options) {
  Response resp;

  // Same trace-ownership discipline as route(); then the context's state
  // lock is taken exclusively -- an eco edit replaces the chip and the
  // obstacle template, so no request may route the design concurrently.
  const bool traced = !options.tracePath.empty();
  std::shared_lock<std::shared_mutex> shared(traceFence_, std::defer_lock);
  std::unique_lock<std::shared_mutex> exclusive(traceFence_, std::defer_lock);
  if (traced)
    exclusive.lock();
  else
    shared.lock();

  if (traced) ctx.traceSession().begin(options.traceLevel);
  std::unique_lock<std::shared_mutex> state(ctx.stateMutex_);
  // Uncontended given the exclusive state lock, but keeps the invariant
  // that whoever routes through the persistent session holds this mutex.
  std::unique_lock<std::mutex> sessionLock(ctx.escapeMutex_);
  resp.design = ctx.chip_.name;
  try {
    const chip::Chip base = ctx.chip_;
    core::RouteResources resources;
    resources.pool = &pool_;
    resources.escapeSession = &ctx.escapeSession_;

    // The ECO base: the cached previous result when its config routes
    // byte-identically under this request's config, else a fresh route of
    // the pre-edit chip (paid once; subsequent eco requests chain).
    bool havePrev = false;
    core::PacorResult prev;
    {
      std::lock_guard<std::mutex> cache(ctx.cacheMutex_);
      if (ctx.hasLast_ && configsEquivalent(ctx.lastConfig_, options.config)) {
        prev = ctx.lastResult_;
        havePrev = true;
      }
    }
    if (!havePrev) {
      core::RouteResources baseResources = resources;
      baseResources.obstacleTemplate = &ctx.obstacleTemplate_;
      prev = core::routeChip(base, options.config, baseResources);
    }

    core::EcoInfo info;
    const core::PacorResult result =
        core::rerouteChip(base, prev, delta, options.config, resources, &info);

    // A watchdog-abandoned eco must not commit: the caller was already
    // answered `err ... deadline` and may retry the same delta, so
    // advancing chip_/obstacleTemplate_/lastResult_ here would make that
    // retry double-apply the edit. The discarded response does not matter;
    // the state update does. Checked under stateMutex_ (held exclusively
    // since before the base route), immediately before the commit.
    if (cancelled(options.cancel))
      throw LoadError("deadline",
                      "eco cancelled after its deadline expired; "
                      "delta not committed");

    // Commit the edited design: later requests (route or eco) see it.
    ctx.chip_ = chip::apply(base, delta);
    ctx.obstacleTemplate_ = core::makeRoutingObstacleTemplate(ctx.chip_);
    {
      std::lock_guard<std::mutex> cache(ctx.cacheMutex_);
      ctx.lastResult_ = result;
      ctx.lastConfig_ = options.config;
      ctx.hasLast_ = true;
    }
    resp.design = ctx.chip_.name;
    fillRouteResponse(resp, result, options);
    resp.ecoMode = info.mode == core::EcoInfo::Mode::kIdentity ? "identity"
                   : info.mode == core::EcoInfo::Mode::kIncremental
                       ? "incremental"
                       : "full";
    resp.ecoDirty = info.dirtyClusters;
    resp.ecoFrozen = info.frozenClusters;
  } catch (const std::exception& e) {
    resp.ok = false;
    resp.error = e.what();
  }

  if (traced) {
    const std::vector<trace::Event> events = ctx.traceSession().end();
    if (ctx.traceSession().superseded()) {
      resp.traceDiscarded = true;
      resp.ok = false;
      if (!resp.error.empty()) resp.error += "; ";
      resp.error += "trace discarded: session superseded by a concurrent request";
    } else {
      resp.traceSpans = static_cast<int>(events.size());
      if (!trace::writeChromeTrace(options.tracePath, events)) {
        resp.ok = false;
        if (!resp.error.empty()) resp.error += "; ";
        resp.error += "cannot write trace file " + options.tracePath;
      }
    }
  }
  return resp;
}

// --- submit() queue tier -------------------------------------------------

namespace {

/// The structured answer for a request whose deadline passed: renders as
/// `err <design> field=deadline deadline expired after <D> ms (<phase>)`.
Response deadlineResponse(const std::string& design, std::int64_t deadlineMs,
                          const char* phase) {
  Response resp;
  resp.design = design;
  resp.ok = false;
  resp.deadlineExpired = true;
  resp.errorField = "deadline";
  resp.error = "deadline expired after " + std::to_string(deadlineMs) +
               " ms (" + phase + ")";
  return resp;
}

}  // namespace

Response Server::execute(const Request& req,
                         const std::shared_ptr<std::atomic<bool>>& cancel) {
  Response resp;
  resp.design = req.design;
  try {
    LoadOptions loadOptions;
    loadOptions.cancel = cancel;
    // admission_ is written once in startDispatch, before any dispatcher
    // (the only execute() caller) exists.
    loadOptions.allowFifoDesigns = admission_.allowFifoDesigns;
    const std::shared_ptr<DesignContext> pinned = context(
        req.design, [&req, &loadOptions] { return loadDesign(req.design, loadOptions); });
    DesignContext& ctx = *pinned;
    // The watchdog already answered the caller: skip the (discarded)
    // routing work and free the dispatcher for live requests.
    if (cancelled(cancel)) {
      resp.ok = false;
      resp.error = "request cancelled after its deadline expired";
      return resp;
    }
    if (req.verb == Verb::kGen) {
      // Warm-up only: the context (chip + obstacle template) now exists,
      // so the first routing request of this design skips the load.
      std::shared_lock<std::shared_mutex> state(ctx.stateMutex_);
      resp.ok = true;
      resp.genValves = static_cast<int>(ctx.chip().valves.size());
      resp.genPins = static_cast<int>(ctx.chip().pins.size());
      resp.genObstacles = static_cast<int>(ctx.chip().obstacles.size());
      return resp;
    }
    RequestOptions options = optionsFor(req);
    options.cancel = cancel;  // guards side-file writes and the eco commit
    resp = req.verb == Verb::kEco
               ? eco(ctx, chip::readDeltaFile(req.deltaPath), options)
               : route(ctx, options);
    resp.design = req.design;  // report the request token, not chip.name
  } catch (const LoadError& e) {
    // Structured: the client can tell a bad design token from a routing
    // failure. Renders as `err <design> field=<field> <reason>`.
    resp.ok = false;
    resp.errorField = e.field;
    resp.error = e.reason;
  } catch (const std::exception& e) {
    resp.ok = false;
    resp.error = e.what();
  }
  return resp;
}

void Server::startDispatch(const AdmissionOptions& admission) {
  std::lock_guard<std::mutex> lock(queueMutex_);
  if (dispatchStarted_) return;
  dispatchStarted_ = true;
  admission_ = admission;
  admission_.maxInflight = std::max(1, admission_.maxInflight);
  maxDesigns_.store(admission_.maxDesigns, std::memory_order_relaxed);
  dispatchers_.reserve(static_cast<std::size_t>(admission_.maxInflight) + 1);
  for (int i = 0; i < admission_.maxInflight; ++i)
    dispatchers_.emplace_back([this] { dispatchLoop(); });
  watchdog_ = std::thread([this] { watchdogLoop(); });
}

std::future<Response> Server::submit(Request req) {
  startDispatch(AdmissionOptions{});  // no-op when already configured
  std::unique_lock<std::mutex> lock(queueMutex_);
  if (draining_ ||
      (admission_.maxQueue != 0 && waiting_ >= admission_.maxQueue)) {
    Response busy;
    busy.design = req.design;
    busy.busy = true;
    busy.error = draining_
                     ? "draining: server is shutting down"
                     : "queue full (" + std::to_string(waiting_) +
                           " waiting, max " +
                           std::to_string(admission_.maxQueue) + ")";
    lock.unlock();
    std::promise<Response> ready;
    std::future<Response> fut = ready.get_future();
    ready.set_value(std::move(busy));
    return fut;
  }
  const std::string key = req.design;
  Pending pending{std::move(req), {}};
  // The deadline clock starts at admission: deadline_ms= on the request,
  // else the server-wide default. gen requests carry no options by
  // grammar, so they inherit the default like any other.
  const std::int64_t effectiveMs = pending.req.deadlineMs > 0
                                       ? pending.req.deadlineMs
                                       : admission_.defaultDeadlineMs;
  if (effectiveMs > 0) {
    pending.hasDeadline = true;
    pending.deadlineMs = effectiveMs;
    pending.deadline = Clock::now() + std::chrono::milliseconds(effectiveMs);
  }
  DesignQueue& dq = queues_[key];
  // Not yet listed runnable and no dispatcher on it: enqueue the design.
  const bool listDesign = dq.fifo.empty() && !dq.running;
  const bool armWatchdog = pending.hasDeadline;
  dq.fifo.push_back(std::move(pending));
  std::future<Response> fut = dq.fifo.back().promise.get_future();
  ++waiting_;
  if (listDesign) runnable_.push_back(key);
  workCv_.notify_one();
  if (armWatchdog) watchdogCv_.notify_one();  // re-aim at the new deadline
  return fut;
}

void Server::dispatchLoop() {
  std::unique_lock<std::mutex> lock(queueMutex_);
  for (;;) {
    workCv_.wait(lock, [this] { return stopping_ || !runnable_.empty(); });
    if (runnable_.empty()) {
      if (stopping_) return;
      continue;
    }
    const std::string key = std::move(runnable_.front());
    runnable_.pop_front();
    DesignQueue& dq = queues_[key];  // recreates the node if it was reaped
    // A dispatcher is already on this design (stale or duplicate listing):
    // skip WITHOUT dispatching, so same-design requests stay serialized.
    // No work is lost -- whoever clears `running` (the executing
    // dispatcher finishing, or the watchdog recycling its slot) re-lists
    // the key when the fifo still has entries.
    if (dq.running) continue;
    if (dq.fifo.empty()) {  // watchdog swept the queued request(s)
      queues_.erase(key);   // empty + idle: drop the node, see watchdogLoop
      continue;
    }
    Pending pending = std::move(dq.fifo.front());
    dq.fifo.pop_front();
    --waiting_;
    // Enforcement point 1: already past its deadline when popped --
    // answer without dispatching (no load, no route, no context touch).
    if (pending.hasDeadline && Clock::now() >= pending.deadline) {
      ++deadlineExpired_;
      if (!dq.fifo.empty()) {
        runnable_.push_back(key);
        workCv_.notify_one();
      } else {
        queues_.erase(key);
      }
      if (waiting_ == 0 && executing_ == 0) idleCv_.notify_all();
      lock.unlock();
      pending.promise.set_value(
          deadlineResponse(pending.req.design, pending.deadlineMs, "queued"));
      lock.lock();
      continue;
    }
    dq.running = true;
    ++executing_;
    // Enforcement point 2/3 plumbing: the in-flight record the watchdog
    // sweeps, carrying the cancel flag the load path polls.
    auto inflight = std::make_shared<Inflight>();
    inflight->design = key;
    inflight->hasDeadline = pending.hasDeadline;
    inflight->deadlineMs = pending.deadlineMs;
    inflight->deadline = pending.deadline;
    inflight->promise = std::move(pending.promise);
    inflight_.push_back(inflight);
    if (inflight->hasDeadline) watchdogCv_.notify_one();
    lock.unlock();

    Response resp = execute(pending.req, inflight->cancel);

    lock.lock();
    if (inflight->abandoned) {
      // The watchdog expired this request mid-execution: it already
      // answered the caller, released the design slot, and spawned a
      // replacement dispatcher. This thread's slot is gone -- record the
      // id so the watchdog can join-and-drop the handle (dispatchers_
      // must not grow by one per recycle forever), discard the result,
      // and exit. (Bounded: every blocking step in execute() polls the
      // cancel flag, so an abandoned thread always gets here.)
      finishedDispatchers_.push_back(std::this_thread::get_id());
      watchdogCv_.notify_one();  // reap this handle promptly
      return;
    }
    inflight_.remove(inflight);
    --executing_;
    dq.running = false;
    // FIFO across designs too: a design with more work re-queues at the
    // back, so one hot design cannot starve the others. An emptied design
    // drops its queue node, keeping queues_ bounded by live designs
    // instead of every token ever submitted.
    if (!dq.fifo.empty()) {
      runnable_.push_back(key);
      workCv_.notify_one();
    } else {
      queues_.erase(key);
    }
    if (waiting_ == 0 && executing_ == 0) idleCv_.notify_all();
    lock.unlock();
    inflight->promise.set_value(std::move(resp));
    lock.lock();
  }
}

/// Joins dispatcher threads that exited after a watchdog recycle and drops
/// their handles from dispatchers_. Each id in finishedDispatchers_ was
/// recorded by the exiting thread itself under queueMutex_ immediately
/// before returning, so by the time the watchdog (which also holds
/// queueMutex_) sees an id, that thread has released the mutex and is in
/// its exit epilogue -- the join is near-instant and cannot deadlock.
/// Caller holds queueMutex_.
void Server::reapDispatchersLocked() {
  for (const std::thread::id id : finishedDispatchers_) {
    for (auto it = dispatchers_.begin(); it != dispatchers_.end(); ++it) {
      if (it->get_id() == id) {
        it->join();
        dispatchers_.erase(it);
        break;
      }
    }
  }
  finishedDispatchers_.clear();
}

void Server::watchdogLoop() {
  std::unique_lock<std::mutex> lock(queueMutex_);
  for (;;) {
    if (stopping_) return;
    // Sleep until the earliest live deadline (queued or executing), or
    // until submit()/dispatchLoop() arms a new one.
    bool haveDeadline = false;
    Clock::time_point next{};
    const auto consider = [&](bool has, Clock::time_point tp) {
      if (!has) return;
      if (!haveDeadline || tp < next) next = tp;
      haveDeadline = true;
    };
    for (const auto& [key, dq] : queues_)
      for (const Pending& p : dq.fifo) consider(p.hasDeadline, p.deadline);
    for (const auto& inf : inflight_) consider(inf->hasDeadline, inf->deadline);
    if (haveDeadline)
      watchdogCv_.wait_until(lock, next);
    else
      watchdogCv_.wait(lock);
    if (stopping_) return;

    // Join-and-drop dispatcher handles decommissioned by earlier recycles
    // (their threads have exited or are about to), so a long-lived server
    // does not grow dispatchers_ by one thread per recycle forever.
    reapDispatchersLocked();

    const Clock::time_point now = Clock::now();
    std::vector<std::promise<Response>> promises;
    std::vector<Response> answers;

    // Sweep the waiting queues: an expired request queued behind a parked
    // (or merely busy) design is answered here -- it would otherwise wait
    // forever on a dispatcher that never frees up.
    for (auto qit = queues_.begin(); qit != queues_.end();) {
      DesignQueue& dq = qit->second;
      for (auto it = dq.fifo.begin(); it != dq.fifo.end();) {
        if (it->hasDeadline && now >= it->deadline) {
          ++deadlineExpired_;
          --waiting_;
          answers.push_back(
              deadlineResponse(it->req.design, it->deadlineMs, "queued"));
          promises.push_back(std::move(it->promise));
          it = dq.fifo.erase(it);
        } else {
          ++it;
        }
      }
      // A sweep that empties an idle design's fifo must also retract its
      // runnable_ listing: left behind, a later submit() would see
      // `fifo.empty() && !running` and list the key a SECOND time, and two
      // dispatchers could then execute the same design concurrently.
      // Dropping the empty node keeps queues_ (and this scan) bounded by
      // live designs rather than every token ever submitted.
      if (dq.fifo.empty() && !dq.running) {
        runnable_.erase(
            std::remove(runnable_.begin(), runnable_.end(), qit->first),
            runnable_.end());
        qit = queues_.erase(qit);
      } else {
        ++qit;
      }
    }

    // Sweep the in-flight set: answer the caller, cancel the execution,
    // and recycle the dispatcher slot -- the stuck thread is decommissioned
    // (it discards its result and exits when its blocking step notices the
    // cancel flag), a replacement thread keeps concurrency at maxInflight,
    // and the design's FIFO resumes draining immediately.
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      Inflight& inf = **it;
      if (inf.hasDeadline && now >= inf.deadline) {
        inf.abandoned = true;
        inf.cancel->store(true, std::memory_order_relaxed);
        ++deadlineExpired_;
        ++dispatcherRecycles_;
        --executing_;
        DesignQueue& dq = queues_[inf.design];
        dq.running = false;
        if (!dq.fifo.empty()) {
          runnable_.push_back(inf.design);
          workCv_.notify_one();
        } else {
          queues_.erase(inf.design);
        }
        dispatchers_.emplace_back([this] { dispatchLoop(); });
        answers.push_back(
            deadlineResponse(inf.design, inf.deadlineMs, "executing"));
        promises.push_back(std::move(inf.promise));
        it = inflight_.erase(it);
      } else {
        ++it;
      }
    }

    if (waiting_ == 0 && executing_ == 0) idleCv_.notify_all();
    if (promises.empty()) continue;
    lock.unlock();
    for (std::size_t i = 0; i < promises.size(); ++i)
      promises[i].set_value(std::move(answers[i]));
    lock.lock();
  }
}

void Server::beginDrain() {
  std::lock_guard<std::mutex> lock(queueMutex_);
  draining_ = true;
}

void Server::drainAndStop() {
  beginDrain();
  std::vector<std::thread> workers;
  std::thread watchdog;
  {
    std::unique_lock<std::mutex> lock(queueMutex_);
    idleCv_.wait(lock, [this] { return waiting_ == 0 && executing_ == 0; });
    stopping_ = true;
    workCv_.notify_all();
    watchdogCv_.notify_all();
    workers.swap(dispatchers_);
    watchdog.swap(watchdog_);
  }
  // Joins are bounded even for decommissioned threads: their blocking
  // steps poll the cancel flag the watchdog set when it abandoned them.
  for (std::thread& t : workers) t.join();
  if (watchdog.joinable()) watchdog.join();
}

std::size_t Server::queuedRequests() const {
  std::lock_guard<std::mutex> lock(queueMutex_);
  return waiting_;
}

bool Server::draining() const {
  std::lock_guard<std::mutex> lock(queueMutex_);
  return draining_;
}

// --- batch adapter -------------------------------------------------------

int runBatch(std::istream& manifest, std::ostream& out, const BatchOptions& options) {
  // One slot per manifest request, in manifest order: either an already
  // rendered parse-error response or the future of a submitted request.
  struct Slot {
    std::optional<std::future<Response>> fut;
    Response immediate;
  };

  Server server(options.jobs);
  AdmissionOptions admission;
  admission.maxInflight = std::max(1, options.concurrency);
  admission.maxQueue = 0;
  admission.defaultDeadlineMs = options.defaultDeadlineMs;
  admission.maxDesigns = options.maxDesigns;
  admission.allowFifoDesigns = options.allowFifoDesigns;
  server.startDispatch(admission);

  std::vector<Slot> slots;
  std::string line;
  int lineNumber = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (std::getline(manifest, line)) {
    ++lineNumber;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    ParseError error;
    Slot slot;
    if (std::optional<Request> req = parseRequestLine(line, &error)) {
      slot.fut = server.submit(std::move(*req));
    } else {
      slot.immediate.design = error.design.empty() ? "-" : error.design;
      slot.immediate.ok = false;
      slot.immediate.error =
          "line " + std::to_string(lineNumber) + ": " + error.render();
    }
    slots.push_back(std::move(slot));
  }

  // Futures resolve out of order (per-design FIFO, cross-design parallel);
  // responses still print in request order, stdout byte-stable for a
  // given manifest.
  int failed = 0;
  std::vector<Response> responses;
  responses.reserve(slots.size());
  for (Slot& slot : slots)
    responses.push_back(slot.fut ? slot.fut->get() : std::move(slot.immediate));
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (const Response& resp : responses) {
    out << formatResponse(resp) << '\n';
    const bool genOk = resp.ok && resp.genValves >= 0;
    if (!resp.ok || (!genOk && !resp.complete)) ++failed;
  }
  std::fprintf(stderr,
               "pacor serve: %zu request(s), %zu design context(s), jobs=%u, "
               "concurrency=%d, %d failure(s), %.2fs\n",
               slots.size(), server.designCount(), server.threadCount(),
               std::max(1, options.concurrency), failed, seconds);
  return failed;
}

}  // namespace pacor::serve
