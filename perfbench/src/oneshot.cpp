// table1: the paper's seven Table-1 designs, each routed from scratch with
// routeChip, serially, in repeated passes in a fixed order; after each route
// one fixed ECO edit (a valve moved to a free neighbouring cell) is
// re-routed with rerouteChip against that pass's result. Escape's flow run
// is nearly all of the work and the working set fits in cache.

#include <algorithm>
#include <unordered_set>

#include "bench.hpp"
#include "chip/delta.hpp"
#include "pacor/eco.hpp"
#include "pacor/pipeline.hpp"

namespace perfbench {

using namespace pacor;

namespace {

const std::vector<std::string> kDesigns = {"Chip1", "Chip2", "S1", "S2", "S3", "S4", "S5"};

/// The design's ECO edit: its middle valve (by id) moved to the first free
/// interior cell of the rings around it -- the same edit every pass and for
/// every seed.
chip::ChipDelta ecoEdit(const chip::Chip& chip) {
  std::unordered_set<geom::Point> used(chip.obstacles.begin(), chip.obstacles.end());
  for (const chip::Valve& v : chip.valves) used.insert(v.pos);
  for (const chip::ControlPin& p : chip.pins) used.insert(p.pos);
  const std::int32_t w = chip.routingGrid.width(), h = chip.routingGrid.height();
  const auto id = static_cast<chip::ValveId>(chip.valves.size() / 2);
  const geom::Point at = chip.valves[static_cast<std::size_t>(id)].pos;
  for (std::int32_t r = 1; r <= 3; ++r)
    for (std::int32_t dy = -r; dy <= r; ++dy)
      for (std::int32_t dx = -r; dx <= r; ++dx) {
        const geom::Point to{at.x + dx, at.y + dy};
        if (std::abs(dx) + std::abs(dy) != r || to.x < 1 || to.y < 1 || to.x > w - 2 ||
            to.y > h - 2 || used.count(to))
          continue;
        chip::ChipDelta delta;
        delta.moveValve(id, to);
        if (!chip::apply(chip, delta).validate()) return delta;
      }
  throw std::runtime_error(chip.name + ": no free cell next to valve " + std::to_string(id));
}

struct Design {
  std::string token;
  chip::Chip chip;
  chip::ChipDelta edit;
  std::string routeHash;
  std::string ecoHash;
  std::string responseLine;  ///< expected serve response, for the protocol probe
  std::vector<double> routeS, ecoS;  ///< timed passes only
};

}  // namespace

int runOneShot(const Args& args, Report& report) {
  const auto golden = readGolden(args.root + "/tests/golden/solution_hashes.txt");
  if (golden.empty()) report.fail("cannot read tests/golden/solution_hashes.txt");
  const core::PacorConfig config = serialConfig();
  // The host-speed buffer is built first, so every pass runs with it
  // resident and peakRssMb can take it out. Building it is the benchmark's
  // own work and is taken out of set-up.
  const auto chaseStart = Clock::now();
  PointerChase chase;
  const double chaseBuildS = secondsSince(chaseStart);

  // --- Set-up: generate each design and pass it through a .chip file.
  std::vector<Design> designs;
  double generateS = 0.0, roundTripS = 0.0;
  for (const std::string& token : kDesigns) {
    auto t0 = Clock::now();
    const chip::Chip generated = generateDesign(token);
    generateS += secondsSince(t0);
    t0 = Clock::now();
    std::string error;
    chip::Chip parsed = fileRoundTrip(generated, args.outDir + "/" + chipFileName(token), error);
    roundTripS += secondsSince(t0);
    if (!error.empty()) report.fail(error);
    chip::ChipDelta edit = ecoEdit(parsed);
    designs.push_back({token, std::move(parsed), std::move(edit), {}, {}, {}, {}, {}});
  }

  // One pass: every design routed once and its ECO edit re-routed. The
  // first pass is the cold one and ends set-up: it checks every output
  // against the oracle, the geometry and the golden hashes, and fixes the
  // hashes the timed passes are compared with.
  std::int64_t wirelength = 0, matched = 0;
  double checkS = 0.0;
  struct Pass {
    double routeS = 0.0, ecoS = 0.0;
    std::map<std::string, double> layers;
  };
  auto runPass = [&](bool first) {
    Pass pass;
    for (Design& d : designs) {
      core::PacorResult result;
      {
        trace::Span span("bench.routeChip", "bench");
        const auto t0 = Clock::now();
        result = core::routeChip(d.chip, config);
        const double dt = secondsSince(t0);
        pass.routeS += dt;
        if (!first) d.routeS.push_back(dt);
      }
      ++report.attempted;
      if (!result.complete) ++report.failed;
      addResultLayers(pass.layers, [&](const std::string& n) { return result.metrics.getReal(n); });
      auto t0 = Clock::now();
      const std::string hash = solutionHash(result);
      if (first) {
        std::string why;
        {
          trace::Span span("bench.verifySolution", "bench");
          why = checkSolution(d.chip, result);
        }
        if (!why.empty()) report.fail(why);
        const auto it = golden.find(d.token);
        if (it == golden.end() || it->second != hash)
          report.fail(d.token + ": solution hash differs from tests/golden/solution_hashes.txt");
        d.routeHash = hash;
        d.responseLine = expectedRouteLine(d.token, result);
        wirelength += result.totalChannelLength;
        matched += result.matchedClusterCount;
      } else if (hash != d.routeHash) {
        report.fail(d.token + ": a timed pass routed a different solution");
      }
      checkS += secondsSince(t0);

      // ECO: the design's fixed edit, re-routed against this pass's result.
      ++report.attempted;
      core::PacorResult eco;
      core::EcoInfo info;
      double dt = 0.0;
      {
        trace::Span span("bench.rerouteChip", "bench");
        t0 = Clock::now();
        eco = core::rerouteChip(d.chip, result, d.edit, config, {}, &info);
        dt = secondsSince(t0);
      }
      if (!eco.complete) ++report.failed;
      pass.ecoS += dt;
      if (!first) d.ecoS.push_back(dt);
      pass.layers["eco.dirty_clusters"] += info.dirtyClusters;
      pass.layers["eco.frozen_clusters"] += info.frozenClusters;
      t0 = Clock::now();
      const std::string ecoHash = solutionHash(eco);
      if (first) {
        report.note("eco " + d.token + " mode=" + ecoModeName(info.mode) +
                    " dirty=" + std::to_string(info.dirtyClusters) +
                    " frozen=" + std::to_string(info.frozenClusters) +
                    (info.fullReason.empty() ? "" : " reason=\"" + info.fullReason + "\""));
        std::string why;
        {
          trace::Span span("bench.verifySolution", "bench");
          why = checkSolution(chip::apply(d.chip, d.edit), eco);
        }
        if (!why.empty()) report.fail("eco " + why);
        d.ecoHash = ecoHash;
      } else if (ecoHash != d.ecoHash) {
        report.fail(d.token + ": a timed pass re-routed a different ECO");
      }
      checkS += secondsSince(t0);
    }
    return pass;
  };
  runPass(true);
  // Set-up is everything before the first timed request: generation, the
  // file round trip and the first, cold request of each design. The
  // benchmark's own checking is not the program's set-up and is taken out.
  const double setupS = secondsSince(args.start) - checkS - chaseBuildS;

  if (args.trace) trace::beginSession(trace::Level::kStage);
  std::vector<double> passS, passWallS, ecoMs, chaseMs;
  std::vector<std::map<std::string, double>> layerRounds;
  const double n = static_cast<double>(designs.size());
  const auto loopStart = Clock::now();
  auto lastChase = loopStart - std::chrono::seconds(1);
  // Whole passes only: another one starts while a typical pass still fits
  // in the run's time.
  constexpr std::size_t kMinPasses = 2;
  // Peak RSS is read after the first timed pass, a fixed amount of work:
  // later passes only add heap fragmentation, which made the figure follow
  // how many passes a run held.
  double peakMb = 0.0;
  while (passS.size() < kMinPasses ||
         secondsSince(loopStart) + median(passWallS) <= args.seconds) {
    const auto passStart = Clock::now();
    Pass pass = runPass(false);
    passWallS.push_back(secondsSince(passStart));
    passS.push_back(pass.routeS);
    ecoMs.push_back(pass.ecoS * 1e3 / n);
    layerRounds.push_back(std::move(pass.layers));
    if (passS.size() == 1) peakMb = peakRssMb(chase);
    if (secondsSince(lastChase) >= 1.0) {
      chaseMs.push_back(chase.runMs());
      lastChase = Clock::now();
    }
  }
  const double oracleS = checkS;

  std::vector<trace::Event> events;
  if (args.trace) {
    events = trace::endSession();
    trace::writeChromeTrace(args.root + "/.bench_out/trace-" + args.workload + ".json", events);
  }

  report.note(describe("route_pass_s", passS));
  report.note(series("route_pass_s", passS));
  report.note(series("host_chase_ms", chaseMs));
  report.note(describe("eco_ms", ecoMs));
  report.note(describe("host_chase_ms", chaseMs));
  report.note("setup_s=" + std::to_string(setupS) + " chip.generate_s=" + std::to_string(generateS) +
              " chip.file_roundtrip_s=" + std::to_string(roundTripS) +
              " checks_s=" + std::to_string(checkS));
  report.note("ops attempted=" + std::to_string(report.attempted) +
              " failed=" + std::to_string(report.failed) +
              " passes=" + std::to_string(passS.size()) +
              " host_chase_ms=" + std::to_string(median(chaseMs)));

  double routeBest = 0.0, ecoBest = 0.0;
  for (const Design& d : designs) {
    routeBest += best(d.routeS);
    ecoBest += best(d.ecoS);
  }
  report.endToEnd("route_pass_s", routeBest, "s");
  report.endToEnd("setup_s", setupS, "s");
  report.endToEnd("peak_rss_mb", peakMb, "MB");
  report.endToEnd("wirelength", static_cast<double>(wirelength), "cells");
  report.endToEnd("matched_clusters", static_cast<double>(matched), "count");
  report.endToEnd("route_ms", routeBest * 1e3 / n, "ms");
  report.endToEnd("eco_ms", ecoBest * 1e3 / n, "ms");
  report.endToEnd("requests_per_s", 2.0 * n / (routeBest + ecoBest), "req/s");

  // Layers read from the router's own results are reported on every run,
  // so traced and untraced runs can be compared; the serve and protocol
  // probes and the trace figures only on traced runs.
  report.layer("chip.generate_s", generateS, "s");
  report.layer("chip.file_roundtrip_s", roundTripS, "s");
  reportResultLayers(report, layerRounds);
  report.layer("eco.reroute_ms", median(ecoMs), "ms");
  report.layer("eco.dirty_clusters", medianOf(layerRounds, "eco.dirty_clusters"), "count");
  report.layer("eco.frozen_clusters", medianOf(layerRounds, "eco.frozen_clusters"), "count");
  report.layer("verify.oracle_s", oracleS, "s");
  report.layer("host.pointer_chase_ms", median(chaseMs), "ms");
  if (!args.trace) return 0;
  // The serve layer is probed on the workload's fastest design.
  const auto fastest = std::min_element(designs.begin(), designs.end(),
                                        [](const Design& a, const Design& b) {
                                          return best(a.routeS) < best(b.routeS);
                                        });
  const ServeProbe probe = probeServe(fastest->token, 5);
  report.layer("serve.execute_ms", probe.executeMs, "ms");
  report.layer("serve.net_overhead_ms", probe.netOverheadMs, "ms");
  std::vector<std::string> requests, responses;
  for (const Design& d : designs) {
    requests.push_back(d.token);
    responses.push_back(d.responseLine);
  }
  report.layer("protocol.roundtrip_us", protocolRoundtripUs(requests, responses), "us");
  report.layer("trace.traced_pass_s", routeBest, "s");
  report.layer("trace.spans", static_cast<double>(events.size()), "count");
  noteTraceTable(report, summarizeTrace(events));
  return 0;
}

}  // namespace perfbench
