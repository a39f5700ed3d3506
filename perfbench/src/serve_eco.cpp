// serve-eco: an in-process loopback NetServer (one routing job, one
// request in flight) driven by one client connection in a closed loop.
// A round is 36 requests in seeded order: every read design routed four
// times (warm), and on each ECO design one fixed cycle of four edits -- a
// valve moved and moved back, an obstacle dropped on a routed escape
// channel and removed -- so each design returns to its start state every
// round.
//
// Route responses must equal, byte for byte, the line a one-shot routeChip
// of the design implies (cold_builds=0 on every repeat). Each ECO response
// is compared with a direct rerouteChip of the same edit on the benchmark's
// own copy of the design state (derived with chip::apply), and that result
// is checked complete and oracle-clean on the edited chip.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "bench.hpp"
#include "chip/delta.hpp"
#include "pacor/eco.hpp"
#include "pacor/pipeline.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

using namespace pacor;

namespace {

const std::vector<std::string> kReads = {"S1", "S2", "S3", "S4", "S5", "fpva:8x8", "fpva:12x12"};
const std::vector<std::string> kEcoDesigns = {"Chip1", "Chip2"};
constexpr int kReadsPerDesign = 4;
constexpr std::size_t kMirrorCache = 64;

struct Read {
  std::string token;
  std::string expected;  ///< warm response line
  std::int64_t length = 0;
  int matched = 0;
};

/// A mirrored ECO result: what the server must answer for one edit.
struct Mirror {
  core::PacorResult result;
  std::string expected;  ///< response line without its cold_builds field
};

struct EcoDesign {
  std::string token;
  chip::Chip chip;             ///< the design state the server holds
  core::PacorResult result;    ///< the result the server chains from
  std::string resultHash;
  std::vector<chip::ChipDelta> cycle;
  std::vector<std::string> lines;  ///< request line per cycle step
  std::size_t next = 0;
};

std::string withoutField(const std::string& line, const std::string& key) {
  std::istringstream is(line);
  std::string tok, out;
  while (is >> tok) {
    if (tok.rfind(key, 0) == 0) continue;
    if (!out.empty()) out += ' ';
    out += tok;
  }
  return out;
}

/// Mirrors ECO requests with direct rerouteChip calls, remembering the
/// answer per (previous solution, cycle step) so repeated cycles that
/// revisit a state cost no routing.
class EcoMirror {
 public:
  explicit EcoMirror(const core::PacorConfig& config) : config_(config) {}

  /// The expected answer to step `step` of `d`'s cycle; advances `d`.
  /// Returns nullptr when the edit does not re-route complete and clean.
  const Mirror* step(EcoDesign& d, std::size_t step) {
    const std::string key = d.token + "/" + d.resultHash + "/" + std::to_string(step);
    auto it = cache_.find(key);
    chip::Chip edited = chip::apply(d.chip, d.cycle[step]);
    if (it == cache_.end()) {
      Mirror m;
      core::EcoInfo info;
      {
        trace::Span span("bench.rerouteChip", "bench");
        const auto t0 = Clock::now();
        m.result = core::rerouteChip(d.chip, d.result, d.cycle[step], config_, {}, &info);
        rerouteMs.push_back(secondsSince(t0) * 1e3);
      }
      const auto t0 = Clock::now();
      std::string why;
      {
        trace::Span span("bench.verifySolution", "bench");
        why = checkSolution(edited, m.result);
      }
      oracleS += secondsSince(t0);
      if (!why.empty()) {
        lastError = "eco " + why;
        return nullptr;
      }
      m.expected = withoutField(expectedRouteLine(d.token, m.result), "cold_builds=") +
                   " eco=" + ecoModeName(info.mode) + " dirty=" +
                   std::to_string(info.dirtyClusters) +
                   " reused=" + std::to_string(info.frozenClusters);
      if (cache_.size() >= kMirrorCache) cache_.clear();
      it = cache_.emplace(key, std::move(m)).first;
    }
    d.chip = std::move(edited);
    d.result = it->second.result;
    d.resultHash = solutionHash(d.result);
    return &it->second;
  }

  std::vector<double> rerouteMs;
  double oracleS = 0.0;
  std::string lastError;

 private:
  core::PacorConfig config_;
  std::map<std::string, Mirror> cache_;
};

/// The design's ECO cycle: its middle valve (by id) moved to a free
/// neighbouring cell and back, then an obstacle dropped on the middle cell
/// of the longest routed escape channel and removed. The cycle is fixed per
/// design, so runs with different seeds do the same ECO work.
std::vector<chip::ChipDelta> ecoCycle(const chip::Chip& chip, const core::PacorResult& routed) {
  std::unordered_set<geom::Point> used(chip.obstacles.begin(), chip.obstacles.end());
  for (const chip::Valve& v : chip.valves) used.insert(v.pos);
  for (const chip::ControlPin& p : chip.pins) used.insert(p.pos);
  const route::Path* longest = nullptr;
  for (const core::RoutedCluster& rc : routed.clusters)
    if (longest == nullptr || rc.escapePath.size() > longest->size()) longest = &rc.escapePath;
  if (longest == nullptr || longest->size() < 3)
    throw std::runtime_error(chip.name + ": no escape channel to block");
  const geom::Point block = (*longest)[longest->size() / 2];

  const auto id = static_cast<chip::ValveId>(chip.valves.size() / 2);
  const geom::Point from = chip.valves[static_cast<std::size_t>(id)].pos;
  const std::int32_t w = chip.routingGrid.width(), h = chip.routingGrid.height();
  for (const geom::Point step : {geom::Point{1, 0}, {-1, 0}, {0, 1}, {0, -1}}) {
    const geom::Point to = from + step;
    if (to.x < 1 || to.y < 1 || to.x > w - 2 || to.y > h - 2 || used.count(to) || to == block)
      continue;
    std::vector<chip::ChipDelta> cycle(4);
    cycle[0].moveValve(id, to);
    cycle[1].moveValve(id, from);
    cycle[2].addObstacle(block);
    cycle[3].removeObstacle(block);
    if (!chip::apply(chip, cycle[0]).validate() && !chip::apply(chip, cycle[2]).validate())
      return cycle;
  }
  throw std::runtime_error(chip.name + ": no free cell next to valve " + std::to_string(id));
}

/// Parses the flat `"name": number` lines of a metrics side file.
std::map<std::string, double> readMetricsFile(const std::string& path) {
  std::map<std::string, double> values;
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t a = line.find('"');
    const std::size_t b = a == std::string::npos ? a : line.find('"', a + 1);
    const std::size_t colon = b == std::string::npos ? b : line.find(':', b);
    if (colon == std::string::npos) continue;
    char* end = nullptr;
    const double v = std::strtod(line.c_str() + colon + 1, &end);
    if (end != line.c_str() + colon + 1) values[line.substr(a + 1, b - a - 1)] = v;
  }
  return values;
}

int fieldValue(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(" " + key + "=");
  return at == std::string::npos ? 0 : std::atoi(line.c_str() + at + key.size() + 2);
}

}  // namespace

int runServeEco(const Args& args, Report& report) {
  std::mt19937 rng(args.seed);
  const core::PacorConfig config = serialConfig();
  const auto golden = readGolden(args.root + "/tests/golden/solution_hashes.txt");
  if (golden.empty()) report.fail("cannot read tests/golden/solution_hashes.txt");
  EcoMirror mirror(config);
  // Built first so the whole run holds it resident (see runOneShot).
  const auto chaseStart = Clock::now();
  PointerChase chase;
  const double chaseBuildS = secondsSince(chaseStart);

  // --- Set-up: designs, one-shot references, ECO cycles, server start and
  // one cold request per design.
  double generateS = 0.0, roundTripS = 0.0, referenceS = 0.0;
  auto prepare = [&](const std::string& token, core::PacorResult& ref) {
    auto t0 = Clock::now();
    const chip::Chip generated = generateDesign(token);
    generateS += secondsSince(t0);
    t0 = Clock::now();
    std::string error;
    chip::Chip parsed = fileRoundTrip(generated, args.outDir + "/" + chipFileName(token), error);
    roundTripS += secondsSince(t0);
    if (!error.empty()) report.fail(error);
    t0 = Clock::now();
    {
      trace::Span span("bench.routeChip", "bench");
      ref = core::routeChip(parsed, config);
    }
    const auto t1 = Clock::now();
    const std::string why = checkSolution(parsed, ref);
    mirror.oracleS += secondsSince(t1);
    if (!why.empty()) report.fail(why);
    const auto it = golden.find(token);
    if (it != golden.end() && it->second != solutionHash(ref))
      report.fail(token + ": solution hash differs from tests/golden/solution_hashes.txt");
    referenceS += secondsSince(t0);
    return parsed;
  };
  std::vector<Read> reads;
  for (const std::string& token : kReads) {
    core::PacorResult ref;
    prepare(token, ref);
    reads.push_back({token, expectedRouteLine(token, ref), ref.totalChannelLength,
                     ref.matchedClusterCount});
  }
  std::vector<EcoDesign> ecos;
  for (const std::string& token : kEcoDesigns) {
    EcoDesign d;
    d.token = token;
    d.chip = prepare(token, d.result);
    d.resultHash = solutionHash(d.result);
    d.cycle = ecoCycle(d.chip, d.result);
    for (std::size_t s = 0; s < d.cycle.size(); ++s) {
      const std::string path =
          args.outDir + "/" + token + "-" + std::to_string(s) + ".delta";
      chip::writeDeltaFile(path, d.cycle[s]);
      d.lines.push_back("eco " + token + " delta=" + path);
    }
    ecos.push_back(std::move(d));
  }

  serve::net::NetOptions options;
  options.jobs = 1;
  options.admission.maxInflight = 1;
  serve::net::NetServer net(options);
  auto client = std::make_unique<serve::net::Client>("127.0.0.1", net.port());
  for (const Read& r : reads) {
    const std::string line = client->call(r.token);
    if (withoutField(line, "cold_builds=") != withoutField(r.expected, "cold_builds="))
      report.fail("cold " + checkResponse(line, r.expected));
  }
  for (const EcoDesign& d : ecos) {
    const std::string line = client->call(d.token);
    const std::string expected = expectedRouteLine(d.token, d.result);
    if (withoutField(line, "cold_builds=") != withoutField(expected, "cold_builds="))
      report.fail("cold " + checkResponse(line, expected));
  }
  // The one-shot references and their checks, like the host-speed buffer,
  // are the benchmark's own work, not the server's set-up, and are taken
  // out.
  const double setupS = secondsSince(args.start) - referenceS - chaseBuildS;

  if (args.trace) trace::beginSession(trace::Level::kStage);
  const std::string metricsPath = args.outDir + "/request-metrics.json";
  const std::string metricsSuffix = args.trace ? " metrics=" + metricsPath : "";

  // Round plan: -1 - k marks ECO design k, anything else indexes kReads.
  std::vector<int> plan;
  for (int r = 0; r < static_cast<int>(reads.size()); ++r)
    for (int k = 0; k < kReadsPerDesign; ++k) plan.push_back(r);
  for (int e = 0; e < static_cast<int>(ecos.size()); ++e)
    for (std::size_t s = 0; s < ecos[static_cast<std::size_t>(e)].cycle.size(); ++s)
      plan.push_back(-1 - e);

  std::vector<double> roundS, routeMs, ecoMs, chaseMs, lengths, matchedCounts;
  std::map<std::string, std::vector<double>> latencyS;  ///< per request line
  std::vector<std::map<std::string, double>> layerRounds;
  std::vector<std::string> responses;
  const auto loopStart = Clock::now();
  auto lastChase = loopStart - std::chrono::seconds(1);
  for (int round = 0; round == 0 || secondsSince(loopStart) < args.seconds; ++round) {
    std::shuffle(plan.begin(), plan.end(), rng);
    double routeSum = 0.0, ecoSum = 0.0, length = 0.0, matched = 0.0;
    int routeCount = 0, ecoCount = 0;
    std::map<std::string, double> layers;
    for (const int slot : plan) {
      EcoDesign* d = slot < 0 ? &ecos[static_cast<std::size_t>(-1 - slot)] : nullptr;
      const std::size_t step = d != nullptr ? d->next : 0;
      const std::string request =
          (d != nullptr ? d->lines[step] : reads[static_cast<std::size_t>(slot)].token) +
          metricsSuffix;
      std::string line;
      double dt = 0.0;
      {
        trace::Span span(d != nullptr ? "bench.client_eco" : "bench.client_route", "bench");
        const auto t0 = Clock::now();
        line = client->call(request);
        dt = secondsSince(t0);
      }
      latencyS[request].push_back(dt);
      ++report.attempted;
      if (line.rfind("ok ", 0) != 0 || line.find(" complete=1 ") == std::string::npos)
        ++report.failed;
      if (round == 0) responses.push_back(line);
      if (args.trace) {
        const auto values = readMetricsFile(metricsPath);
        addResultLayers(layers, [&](const std::string& n) {
          const auto it = values.find(n);
          return it == values.end() ? 0.0 : it->second;
        });
      }
      if (d == nullptr) {
        const Read& r = reads[static_cast<std::size_t>(slot)];
        const std::string why = checkResponse(line, r.expected);
        if (!why.empty()) report.fail(why);
        routeSum += dt;
        ++routeCount;
        length += static_cast<double>(r.length);
        matched += r.matched;
        continue;
      }
      ecoSum += dt;
      ++ecoCount;
      layers["eco.dirty_clusters"] += fieldValue(line, "dirty");
      layers["eco.frozen_clusters"] += fieldValue(line, "reused");
      d->next = (d->next + 1) % d->cycle.size();
      const Mirror* expected = mirror.step(*d, step);
      if (expected == nullptr) {
        report.fail(mirror.lastError);
        continue;
      }
      if (withoutField(line, "cold_builds=") != expected->expected)
        report.fail(checkResponse(withoutField(line, "cold_builds="), expected->expected));
      length += static_cast<double>(expected->result.totalChannelLength);
      matched += expected->result.matchedClusterCount;
    }
    roundS.push_back(routeSum + ecoSum);
    routeMs.push_back(routeSum * 1e3 / routeCount);
    ecoMs.push_back(ecoSum * 1e3 / ecoCount);
    lengths.push_back(length);
    matchedCounts.push_back(matched);
    layerRounds.push_back(std::move(layers));
    if (secondsSince(lastChase) >= 1.0) {
      chaseMs.push_back(chase.runMs());
      lastChase = Clock::now();
    }
  }

  std::vector<trace::Event> events;
  if (args.trace) {
    events = trace::endSession();
    trace::writeChromeTrace(args.root + "/.bench_out/trace-" + args.workload + ".json", events);
  }

  // In-process Server::submit of one round's reads against the same warm
  // server: the execution time without the socket and the client.
  // The socket's own cost: a `gen` request on a warm context does no
  // routing, so client latency minus in-process latency is the net tier.
  std::vector<double> executeMs, genClientMs, genServerMs;
  if (args.trace) {
    for (const Read& r : reads) {
      const std::optional<serve::Request> req = serve::parseRequestLine(r.token);
      trace::Span span("bench.server_submit", "bench");
      const auto t0 = Clock::now();
      const serve::Response resp = net.server().submit(*req).get();
      executeMs.push_back(secondsSince(t0) * 1e3);
      if (!resp.ok || !resp.complete) report.fail("in-process submit of " + r.token + " failed");
    }
    const std::string genLine = "gen " + reads.front().token;
    const std::optional<serve::Request> gen = serve::parseRequestLine(genLine);
    for (int r = 0; r < 50; ++r) {
      auto t0 = Clock::now();
      client->call(genLine);
      genClientMs.push_back(secondsSince(t0) * 1e3);
      t0 = Clock::now();
      net.server().submit(*gen).get();
      genServerMs.push_back(secondsSince(t0) * 1e3);
    }
  }
  client.reset();
  net.beginDrain();
  net.wait();

  report.note(describe("round_s", roundS));
  report.note(describe("route_ms", routeMs));
  report.note(describe("eco_ms", ecoMs));
  report.note(describe("host_chase_ms", chaseMs));
  report.note(series("round_s", roundS));
  report.note(series("host_chase_ms", chaseMs));
  report.note("setup_s=" + std::to_string(setupS) + " chip.generate_s=" + std::to_string(generateS) +
              " chip.file_roundtrip_s=" + std::to_string(roundTripS) +
              " references_s=" + std::to_string(referenceS));
  report.note("ops attempted=" + std::to_string(report.attempted) +
              " failed=" + std::to_string(report.failed) +
              " rounds=" + std::to_string(roundS.size()) +
              " mirror_reroutes=" + std::to_string(mirror.rerouteMs.size()) +
              " host_chase_ms=" + std::to_string(median(chaseMs)));

  // One round at each request's fastest latency of the run; every client
  // latency of a verb is kept for its reference percentiles.
  double readBest = 0.0, ecoBest = 0.0;
  std::size_t ecoLines = 0;
  std::vector<double> readAllMs, ecoAllMs;
  auto collect = [](std::vector<double>& out, const std::vector<double>& seconds) {
    for (const double s : seconds) out.push_back(s * 1e3);
  };
  for (const Read& r : reads) {
    readBest += best(latencyS[r.token + metricsSuffix]);
    collect(readAllMs, latencyS[r.token + metricsSuffix]);
  }
  for (const EcoDesign& d : ecos)
    for (const std::string& line : d.lines) {
      ecoBest += best(latencyS[line + metricsSuffix]);
      collect(ecoAllMs, latencyS[line + metricsSuffix]);
      ++ecoLines;
    }
  report.note(describe("route_req_ms", readAllMs));
  report.note(describe("eco_req_ms", ecoAllMs));
  const double roundBest = kReadsPerDesign * readBest + ecoBest;
  report.endToEnd("route_pass_s", roundBest, "s");
  report.endToEnd("setup_s", setupS, "s");
  report.endToEnd("peak_rss_mb", peakRssMb(chase), "MB");
  report.endToEnd("wirelength", median(lengths), "cells");
  report.endToEnd("matched_clusters", median(matchedCounts), "count");
  report.endToEnd("route_ms", readBest * 1e3 / static_cast<double>(reads.size()), "ms");
  report.endToEnd("eco_ms", ecoBest * 1e3 / static_cast<double>(ecoLines), "ms");
  report.endToEnd("requests_per_s", static_cast<double>(plan.size()) / roundBest, "req/s");

  // The stage figures come from the server's metrics files, which only
  // traced runs request; the rest are reported on every run.
  report.layer("chip.generate_s", generateS, "s");
  report.layer("chip.file_roundtrip_s", roundTripS, "s");
  report.layer("eco.reroute_ms", median(mirror.rerouteMs), "ms");
  report.layer("eco.dirty_clusters", medianOf(layerRounds, "eco.dirty_clusters"), "count");
  report.layer("eco.frozen_clusters", medianOf(layerRounds, "eco.frozen_clusters"), "count");
  report.layer("verify.oracle_s", mirror.oracleS, "s");
  report.layer("host.pointer_chase_ms", median(chaseMs), "ms");
  if (!args.trace) return 0;
  reportResultLayers(report, layerRounds);
  const double executeMean = sum(executeMs) / static_cast<double>(executeMs.size());
  report.layer("serve.execute_ms", executeMean, "ms");
  report.layer("serve.net_overhead_ms", median(genClientMs) - median(genServerMs), "ms");
  std::vector<std::string> requests;
  for (const Read& r : reads) requests.push_back(r.token);
  for (const EcoDesign& d : ecos) requests.insert(requests.end(), d.lines.begin(), d.lines.end());
  report.layer("protocol.roundtrip_us", protocolRoundtripUs(requests, responses), "us");
  report.layer("trace.traced_pass_s", roundBest, "s");
  report.layer("trace.spans", static_cast<double>(events.size()), "count");
  noteTraceTable(report, summarizeTrace(events));
  return 0;
}

}  // namespace perfbench
