// pacor_fuzz -- randomized differential fuzz harness for the PACOR flow.
//
// Drives chip::generateChip(chip::randomParams(seed)) through seeded
// random designs (die size, valve/cluster mix, obstacle density, delta
// all vary), runs the full pipeline under serial and parallel configs and
// a rotating flow variant, and asserts these properties per design (there
// is no (f): it checked a retired escape-solver mode, and the other
// letters keep their names):
//
//   (a) the independent oracle (src/verify) accepts every produced
//       solution of a run that claims completion,
//   (b) serial and --jobs=N output are byte-identical (canonical
//       solution text),
//   (c) the oracle and the router-side DRC agree on clean/dirty -- a
//       disagreement is a bug in one of the two checkers,
//   (d) warm escape-flow session rounds are invisible: on the design's
//       pre-escape state, each of a seeded sequence of rounds (escape
//       rip-ups, obstacle adds, plain-cluster splits, tap widening between
//       them) served warm by one EscapeFlowSession gives byte-identical
//       pins, escape paths, (routed, cost) and occupancy to a fresh
//       session built on a copy of the same state,
//   (e) the long-lived serve loop is invisible too: routing the design
//       through one shared serve::Server (shared pool, reused workspaces
//       and obstacle templates across all previous seeds' requests) is
//       byte-identical to the independent one-shot run,
//   (g) ECO differential: a seeded random edit script (1-8 edits -- valve
//       moves/adds/removes, obstacle adds/removes, cluster flips) is
//       applied one delta at a time, chaining each rerouteChip() result
//       into the next step. Every step must be oracle-clean on the edited
//       chip; identity-mode answers must equal the previous solution,
//       full-mode answers must equal a from-scratch routeChip of the
//       edited chip, and every cluster an incremental answer carries must
//       be byte-equal to a cluster of the previous step's solution under
//       the delta's valve renumbering,
//   (h) FPVA valve arrays (every eighth seed) hold the same invariants,
//   (i) serve protocol round trip: random valid request lines re-parse to
//       the same canonical text (format(parse(x)) == x), and arbitrary
//       byte soup never crashes parseRequestLine / parseResponseLine --
//       the exact property the socket front end relies on.
//
// Any failure dumps a repro (<dump>/fuzz_<seed>.chip + .sol [+ .par.sol];
// eco failures dump <dump>/eco_<seed>.chip + .delta + .sol) with the seed
// in the name; checker disagreements are first minimized by greedily
// deleting clusters, eco failures by greedily deleting delta ops, while
// the failure persists.
//
//   pacor_fuzz [--designs=N] [--seed=S] [--jobs=J] [--dump=DIR] [--verbose]
//              [--trace=FILE]
//
// --trace=FILE records the first design's serial+parallel runs at search
// granularity and writes one Chrome trace_event file, exercising the
// tracing subsystem under the same build (e.g. ASan in CI).
//
// Exit code 0 when every design passed, 1 otherwise, 2 on usage errors.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "chip/delta.hpp"
#include "chip/generator.hpp"
#include "chip/io.hpp"
#include "escape_session_check.hpp"
#include "pacor/drc.hpp"
#include "pacor/eco.hpp"
#include "pacor/pipeline.hpp"
#include "pacor/solution_io.hpp"
#include "serve/serve.hpp"
#include "trace/trace.hpp"
#include "verify/oracle.hpp"

namespace {

using namespace pacor;

struct Options {
  std::uint32_t designs = 200;
  std::uint32_t seed = 1;
  int jobs = 4;
  std::string dumpDir = "fuzz-repros";
  std::string tracePath;
  bool verbose = false;
};

int usage() {
  std::cerr << "usage: pacor_fuzz [--designs=N] [--seed=S] [--jobs=J] "
               "[--dump=DIR] [--trace=FILE] [--verbose]\n";
  return 2;
}

bool parseOptions(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto intValue = [&](const std::string& prefix, auto& out) {
      out = static_cast<std::remove_reference_t<decltype(out)>>(
          std::stoll(arg.substr(prefix.size())));
      return true;
    };
    try {
      if (arg.rfind("--designs=", 0) == 0) intValue("--designs=", opt.designs);
      else if (arg.rfind("--seed=", 0) == 0) intValue("--seed=", opt.seed);
      else if (arg.rfind("--jobs=", 0) == 0) intValue("--jobs=", opt.jobs);
      else if (arg.rfind("--dump=", 0) == 0) opt.dumpDir = arg.substr(7);
      else if (arg.rfind("--trace=", 0) == 0) opt.tracePath = arg.substr(8);
      else if (arg == "--verbose") opt.verbose = true;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return opt.jobs >= 0;
}

/// The per-design pass/fail record the summary aggregates.
struct Tally {
  std::uint32_t designs = 0;
  std::uint32_t complete = 0;
  std::uint32_t failures = 0;
  std::uint64_t clusters = 0;
  // Property (g) eco-step mode counts -- the summary proves the sweep
  // exercised all three rerouteChip answers, not just identity.
  std::uint32_t ecoIdentity = 0;
  std::uint32_t ecoIncremental = 0;
  std::uint32_t ecoFull = 0;
  // Property (h): randomized FPVA valve arrays routed differentially.
  std::uint32_t fpva = 0;
  // Property (i): serve protocol lines round-tripped / junk lines survived.
  std::uint64_t protocolLines = 0;
};

/// Property (i) generator: a random valid Request. Tokens avoid
/// whitespace (the grammar's separator) and the verb keywords, which a
/// design name cannot be.
serve::Request randomRequest(std::mt19937& rng) {
  const auto token = [&rng](std::size_t minLen) {
    static const char kChars[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
        "._:/-";
    std::string out;
    const std::size_t len = minLen + rng() % 12;
    for (std::size_t i = 0; i < len; ++i)
      out += kChars[rng() % (sizeof kChars - 1)];
    if (out == "eco" || out == "gen") out += "_";
    return out;
  };
  serve::Request req;
  const std::uint32_t verb = rng() % 8;
  req.verb = verb == 0   ? serve::Verb::kGen
             : verb == 1 ? serve::Verb::kEco
                         : serve::Verb::kRoute;
  req.design = token(1);
  if (req.verb == serve::Verb::kGen) return req;
  if (req.verb == serve::Verb::kEco) req.deltaPath = token(1);
  if (rng() % 2) req.solutionPath = token(1);
  if (rng() % 2) req.metricsPath = token(1);
  if (rng() % 3 == 0) {
    req.tracePath = token(1);
    static const trace::Level kLevels[] = {
        trace::Level::kStage, trace::Level::kCluster, trace::Level::kSearch};
    req.traceLevel = kLevels[rng() % 3];
  }
  static const serve::Variant kVariants[] = {
      serve::Variant::kPacor, serve::Variant::kWosel,
      serve::Variant::kDetourFirst};
  req.variant = kVariants[rng() % 3];
  if (rng() % 3 == 0)
    req.deadlineMs = 1 + static_cast<std::int64_t>(
                             rng() % static_cast<std::uint64_t>(
                                         serve::kMaxDeadlineMs));
  return req;
}

core::PacorConfig configForSeed(std::uint32_t seed) {
  switch (seed % 3) {
    case 1: return core::withoutSelectionConfig();
    case 2: return core::detourFirstConfig();
    default: return core::pacorDefaultConfig();
  }
}

void dumpRepro(const Options& opt, std::uint32_t seed, const chip::Chip& chip,
               const core::PacorResult& serial, const core::PacorResult* parallel) {
  std::filesystem::create_directories(opt.dumpDir);
  const std::string stem = opt.dumpDir + "/fuzz_" + std::to_string(seed);
  chip::writeChipFile(stem + ".chip", chip);
  core::writeSolutionFile(stem + ".sol", serial);
  if (parallel) core::writeSolutionFile(stem + ".par.sol", *parallel);
  std::cerr << "  repro dumped: " << stem << ".chip / .sol"
            << (parallel ? " / .par.sol" : "") << "  (seed " << seed
            << "; re-check with `pacor verify " << stem << ".chip " << stem
            << ".sol`)\n";
}

bool checkersDisagree(const chip::Chip& chip, const core::PacorResult& result) {
  return verify::verifySolution(chip, result).clean() !=
         core::checkSolution(chip, result).clean();
}

/// Greedy 1-cluster deletion while the oracle/DRC disagreement persists;
/// returns the smallest disagreeing solution found.
core::PacorResult minimizeDisagreement(const chip::Chip& chip,
                                       core::PacorResult result) {
  bool shrunk = true;
  while (shrunk && result.clusters.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < result.clusters.size(); ++i) {
      core::PacorResult trial = result;
      trial.clusters.erase(trial.clusters.begin() + static_cast<std::ptrdiff_t>(i));
      if (checkersDisagree(chip, trial)) {
        result = std::move(trial);
        shrunk = true;
        break;
      }
    }
  }
  return result;
}

// --------------------------------------------------------------------------
// Property (g): edit-sequence differential ECO fuzzing.

geom::Point randomFreeCell(const chip::Chip& chip, std::mt19937& rng) {
  std::unordered_set<geom::Point> used(chip.obstacles.begin(), chip.obstacles.end());
  for (const chip::Valve& v : chip.valves) used.insert(v.pos);
  for (const chip::ControlPin& p : chip.pins) used.insert(p.pos);
  std::vector<geom::Point> free;
  for (std::int32_t y = 0; y < chip.routingGrid.height(); ++y)
    for (std::int32_t x = 0; x < chip.routingGrid.width(); ++x)
      if (!used.count({x, y})) free.push_back({x, y});
  // A generated chip always leaves free routing cells.
  return free[rng() % free.size()];
}

std::vector<chip::ValveId> unclusteredValves(const chip::Chip& chip) {
  std::vector<bool> clustered(chip.valves.size(), false);
  for (const chip::ValveCluster& c : chip.givenClusters)
    for (const chip::ValveId v : c.valves)
      clustered[static_cast<std::size_t>(v)] = true;
  std::vector<chip::ValveId> loose;
  for (std::size_t i = 0; i < clustered.size(); ++i)
    if (!clustered[i]) loose.push_back(static_cast<chip::ValveId>(i));
  return loose;
}

/// A structurally-valid 1..2-op edit script against `base`. Ops are drawn
/// against the evolving intermediate chip (DeltaOp ids refer to the state
/// at the moment the op applies), so the script is valid by construction.
chip::ChipDelta randomDelta(const chip::Chip& base, std::mt19937& rng) {
  chip::ChipDelta delta;
  chip::Chip cur = base;
  const int ops = 1 + static_cast<int>(rng() % 2);
  for (int i = 0; i < ops; ++i) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      chip::ChipDelta op;
      switch (rng() % 6) {
        case 0:  // block a free cell
          op.addObstacle(randomFreeCell(cur, rng));
          break;
        case 1:  // unblock an existing obstacle
          if (cur.obstacles.empty()) continue;
          op.removeObstacle(cur.obstacles[rng() % cur.obstacles.size()]);
          break;
        case 2:  // move a valve onto a free cell
          if (cur.valves.empty()) continue;
          op.moveValve(static_cast<chip::ValveId>(rng() % cur.valves.size()),
                       randomFreeCell(cur, rng));
          break;
        case 3:  // drop in a fresh unclustered valve
          op.addValve(randomFreeCell(cur, rng),
                      cur.valves.empty() ? "10" : cur.valves.front().sequence.str());
          break;
        case 4: {  // remove a valve no given cluster references
          const std::vector<chip::ValveId> loose = unclusteredValves(cur);
          if (loose.empty()) continue;
          op.removeValve(loose[rng() % loose.size()]);
          break;
        }
        default: {  // flip a cluster's length-matching constraint
          if (cur.givenClusters.empty()) continue;
          const auto idx = static_cast<std::int32_t>(rng() % cur.givenClusters.size());
          chip::ValveCluster c = cur.givenClusters[static_cast<std::size_t>(idx)];
          c.lengthMatched = !c.lengthMatched;
          op.setCluster(idx, c);
          break;
        }
      }
      cur = chip::apply(cur, op);
      delta.ops.push_back(op.ops.front());
      break;
    }
  }
  return delta;
}

/// Property (g) verdict for one edit step; empty == pass. Deltas that no
/// longer apply or yield an invalid chip (the minimizer shrinks into
/// those) vacuously pass. On pass, `editedOut`/`incOut` receive the edited
/// chip and the rerouteChip result so the caller can chain the next step.
std::string ecoStepFailure(const chip::Chip& cur, const core::PacorResult& prev,
                           const chip::ChipDelta& delta,
                           const core::PacorConfig& cfg,
                           chip::Chip* editedOut = nullptr,
                           core::PacorResult* incOut = nullptr,
                           core::EcoInfo* infoOut = nullptr) {
  chip::AppliedDelta applied;
  try {
    applied = chip::applyWithMap(cur, delta);
  } catch (const std::exception&) {
    return "";
  }
  if (applied.chip.validate()) return "";
  const chip::Chip& edited = applied.chip;
  if (editedOut) *editedOut = edited;

  core::EcoInfo info;
  core::PacorResult inc;
  try {
    inc = core::rerouteChip(cur, prev, delta, cfg, {}, &info);
  } catch (const std::exception& e) {
    return std::string("rerouteChip threw: ") + e.what();
  }
  if (incOut) *incOut = inc;
  if (infoOut) *infoOut = info;

  if (inc.complete) {
    const verify::OracleReport oracle = verify::verifySolution(edited, inc);
    if (!oracle.clean())
      return "eco result claims completion but the oracle found violations:\n" +
             oracle.str();
  }

  switch (info.mode) {
    case core::EcoInfo::Mode::kFull:
      if (core::solutionToString(inc) !=
          core::solutionToString(core::routeChip(edited, cfg)))
        return "full-mode eco differs from routeChip on the edited chip";
      break;
    case core::EcoInfo::Mode::kIdentity:
      if (core::solutionToString(inc) != core::solutionToString(prev))
        return "identity-mode eco does not return the previous solution";
      break;
    case core::EcoInfo::Mode::kIncremental: {
      if (!inc.complete)
        return "incremental-mode eco returned an incomplete solution";
      // Every carried cluster must be byte-equal to a previous cluster
      // under the delta's valve renumbering.
      std::map<std::vector<chip::ValveId>, const core::RoutedCluster*> byValves;
      for (const core::RoutedCluster& rc : prev.clusters) {
        std::vector<chip::ValveId> key = rc.valves;
        std::sort(key.begin(), key.end());
        byValves[std::move(key)] = &rc;
      }
      std::vector<chip::ValveId> invMap(edited.valves.size(), -1);
      for (std::size_t old = 0; old < applied.valveMap.size(); ++old)
        if (applied.valveMap[old] >= 0)
          invMap[static_cast<std::size_t>(applied.valveMap[old])] =
              static_cast<chip::ValveId>(old);
      int carried = 0;
      for (const core::RoutedCluster& rc : inc.clusters) {
        if (!rc.ecoCarried) continue;
        ++carried;
        std::vector<chip::ValveId> key;
        for (const chip::ValveId v : rc.valves) {
          const chip::ValveId old = invMap.at(static_cast<std::size_t>(v));
          if (old < 0) return "carried cluster contains a valve new in this delta";
          key.push_back(old);
        }
        std::sort(key.begin(), key.end());
        const auto it = byValves.find(key);
        if (it == byValves.end())
          return "carried cluster has no valve-set match in the previous solution";
        const core::RoutedCluster& was = *it->second;
        if (rc.pin != was.pin || !(rc.tap == was.tap) ||
            rc.treePaths != was.treePaths || !(rc.escapePath == was.escapePath) ||
            rc.valveLengths != was.valveLengths ||
            rc.lengthMatched != was.lengthMatched ||
            rc.lengthMatchRequested != was.lengthMatchRequested)
          return "carried cluster geometry differs from the previous solution";
      }
      if (carried != info.frozenClusters) {
        std::ostringstream why;
        why << "frozen-cluster count mismatch: " << carried
            << " carried clusters vs info.frozenClusters=" << info.frozenClusters;
        return why.str();
      }
      break;
    }
  }
  return "";
}

/// Greedy 1-op deletion while the eco step failure persists.
chip::ChipDelta minimizeEcoDelta(const chip::Chip& cur, const core::PacorResult& prev,
                                 chip::ChipDelta delta, const core::PacorConfig& cfg) {
  bool shrunk = true;
  while (shrunk && delta.ops.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < delta.ops.size(); ++i) {
      chip::ChipDelta trial = delta;
      trial.ops.erase(trial.ops.begin() + static_cast<std::ptrdiff_t>(i));
      if (!ecoStepFailure(cur, prev, trial, cfg).empty()) {
        delta = std::move(trial);
        shrunk = true;
        break;
      }
    }
  }
  return delta;
}

void dumpEcoRepro(const Options& opt, std::uint32_t seed, const chip::Chip& cur,
                  const core::PacorResult& prev, const chip::ChipDelta& delta) {
  std::filesystem::create_directories(opt.dumpDir);
  const std::string stem = opt.dumpDir + "/eco_" + std::to_string(seed);
  chip::writeChipFile(stem + ".chip", cur);
  chip::writeDeltaFile(stem + ".delta", delta);
  core::writeSolutionFile(stem + ".sol", prev);
  std::cerr << "  repro dumped: " << stem << ".chip / .delta / .sol  (seed "
            << seed << "; base chip + previous solution + edit script)\n";
}

bool runDesign(const Options& opt, serve::Server& server, std::uint32_t seed,
               Tally& tally) {
  const chip::GeneratorParams params = chip::randomParams(seed);
  const chip::Chip chip = chip::generateChip(params);

  core::PacorConfig serialCfg = configForSeed(seed);
  serialCfg.jobs = 1;
  core::PacorConfig parallelCfg = serialCfg;
  parallelCfg.jobs = opt.jobs;

  const core::PacorResult serial = core::routeChip(chip, serialCfg);
  const core::PacorResult parallel = core::routeChip(chip, parallelCfg);
  ++tally.designs;
  tally.complete += serial.complete ? 1 : 0;
  tally.clusters += serial.clusters.size();

  bool ok = true;

  // (b) byte-identical serial vs parallel canonical text.
  const std::string serialText = core::solutionToString(serial);
  if (const std::string parallelText = core::solutionToString(parallel);
      serialText != parallelText) {
    std::cerr << "FAIL seed " << seed << ": serial and --jobs=" << opt.jobs
              << " solutions differ (" << serialText.size() << " vs "
              << parallelText.size() << " bytes)\n";
    dumpRepro(opt, seed, chip, serial, &parallel);
    ok = false;
  }

  // (a) oracle-clean completed solutions, and the round-tripped text
  // re-verifies the same way (covers solution_io on every design).
  const verify::OracleReport oracle = verify::verifySolution(chip, serial);
  if (serial.complete && !oracle.clean()) {
    std::cerr << "FAIL seed " << seed << ": pipeline claims completion but the "
              << "oracle found violations:\n" << oracle.str();
    dumpRepro(opt, seed, chip, serial, nullptr);
    ok = false;
  }
  const core::PacorResult reparsed = core::solutionFromString(serialText);
  if (verify::verifySolution(chip, reparsed).clean() != oracle.clean()) {
    std::cerr << "FAIL seed " << seed
              << ": oracle verdict changed across a solution_io round trip\n";
    dumpRepro(opt, seed, chip, serial, nullptr);
    ok = false;
  }

  // (d) warm escape-session rounds equal fresh-session rounds.
  if (const std::string diff = escapecheck::checkSessionRounds(chip, seed, 4);
      !diff.empty()) {
    std::cerr << "FAIL seed " << seed << ": a warm escape-session round differs "
              << "from a fresh session on the same state (" << diff << ")\n";
    dumpRepro(opt, seed, chip, serial, nullptr);
    ok = false;
  }

  // (e) N requests through one long-lived server == N independent runs.
  // The server is shared across all seeds, so every request after the
  // first exercises reused worker threads and a warm request loop.
  serve::RequestOptions request;
  request.config = serialCfg;
  const serve::Response served =
      server.route("fuzz_" + std::to_string(seed), chip, request);
  if (!served.ok || served.solutionText != serialText) {
    std::cerr << "FAIL seed " << seed << ": serve::Server output differs from "
              << "the independent one-shot run ("
              << (served.ok ? "different bytes" : "error: " + served.error)
              << ")\n";
    dumpRepro(opt, seed, chip, serial, nullptr);
    ok = false;
  }

  // (c) oracle / DRC agreement on clean-vs-dirty.
  if (checkersDisagree(chip, serial)) {
    const core::PacorResult minimized = minimizeDisagreement(chip, serial);
    std::cerr << "FAIL seed " << seed << ": oracle and DRC disagree (minimized to "
              << minimized.clusters.size() << " cluster(s))\n"
              << verify::verifySolution(chip, minimized).str()
              << core::checkSolution(chip, minimized).str();
    dumpRepro(opt, seed, chip, minimized, nullptr);
    ok = false;
  }

  // (g) edit-sequence differential ECO: a seeded 1-8 edit script applied
  // one delta at a time, each rerouteChip result chained into the next
  // step as the previous solution.
  {
    std::mt19937 rng(seed ^ 0x9e3779b9u);
    chip::Chip cur = chip;
    core::PacorResult prev = serial;
    const int steps = 1 + static_cast<int>(rng() % 4);
    for (int step = 0; ok && step < steps; ++step) {
      const chip::ChipDelta delta = randomDelta(cur, rng);
      chip::Chip edited;
      core::PacorResult inc;
      core::EcoInfo info;
      const std::string fail =
          ecoStepFailure(cur, prev, delta, serialCfg, &edited, &inc, &info);
      if (!fail.empty()) {
        const chip::ChipDelta minimized = minimizeEcoDelta(cur, prev, delta, serialCfg);
        std::cerr << "FAIL seed " << seed << " (eco step " << step << ", "
                  << minimized.ops.size() << "/" << delta.ops.size()
                  << " op(s) after minimization): " << fail << '\n';
        dumpEcoRepro(opt, seed, cur, prev, minimized);
        ok = false;
        break;
      }
      switch (info.mode) {
        case core::EcoInfo::Mode::kIdentity: ++tally.ecoIdentity; break;
        case core::EcoInfo::Mode::kIncremental: ++tally.ecoIncremental; break;
        case core::EcoInfo::Mode::kFull: ++tally.ecoFull; break;
      }
      cur = std::move(edited);
      prev = std::move(inc);
    }
  }

  // (h) FPVA valve arrays: every eighth seed also generates a randomized
  // N x M array chip (regular lattice, block clusters, boundary pin ring)
  // and holds it to the core invariants -- oracle-clean when complete and
  // byte-identical serial vs parallel. Keeps the generator's parameter
  // space (ragged blocks, obstacle sprinkling, dense lm mixes) under the
  // same differential harness as the Table-1-style instances.
  if (seed % 8 == 0) {
    const chip::Chip array = chip::generateFpvaChip(chip::randomFpvaParams(seed));
    const core::PacorResult arraySerial = core::routeChip(array, serialCfg);
    const core::PacorResult arrayParallel = core::routeChip(array, parallelCfg);
    ++tally.fpva;
    if (core::solutionToString(arraySerial) !=
        core::solutionToString(arrayParallel)) {
      std::cerr << "FAIL seed " << seed << ": FPVA " << array.name
                << " serial and --jobs=" << opt.jobs << " solutions differ\n";
      dumpRepro(opt, seed, array, arraySerial, &arrayParallel);
      ok = false;
    }
    if (const verify::OracleReport arrayOracle =
            verify::verifySolution(array, arraySerial);
        arraySerial.complete && !arrayOracle.clean()) {
      std::cerr << "FAIL seed " << seed << ": FPVA " << array.name
                << " claims completion but the oracle found violations:\n"
                << arrayOracle.str();
      dumpRepro(opt, seed, array, arraySerial, nullptr);
      ok = false;
    }
  }

  // (i) protocol round trip + junk-tolerance. Round trip: a random valid
  // request's canonical text re-parses and re-formats to itself. Junk: any
  // byte soup (including frames a confused client might send) must come
  // back as a parse error or a parse, never a crash or a throw -- an
  // exception here propagates to the seed-level catch and fails the seed.
  {
    std::mt19937 rng(seed * 2654435761u + 17u);
    for (int i = 0; i < 32; ++i) {
      const serve::Request req = randomRequest(rng);
      const std::string canonical = serve::formatRequestLine(req);
      serve::ParseError perr;
      const std::optional<serve::Request> reparsed =
          serve::parseRequestLine(canonical, &perr);
      if (!reparsed ||
          serve::formatRequestLine(*reparsed) != canonical) {
        std::cerr << "FAIL seed " << seed << ": protocol round trip broke on '"
                  << canonical << "' ("
                  << (reparsed ? "'" + serve::formatRequestLine(*reparsed) + "'"
                               : "parse error: " + perr.render())
                  << ")\n";
        ok = false;
        break;
      }
      ++tally.protocolLines;
    }
    for (int i = 0; i < 32; ++i) {
      std::string junk;
      const std::size_t len = rng() % 64;
      for (std::size_t j = 0; j < len; ++j)
        junk += static_cast<char>(rng() % 256);
      serve::parseRequestLine(junk);
      serve::parseResponseLine(junk);
      ++tally.protocolLines;
    }
    // Junk deadline_ms values: every malformed shape (empty, signed,
    // non-numeric, zero, overflow past kMaxDeadlineMs, embedded junk) must
    // come back as a structured error on field "deadline_ms" -- never a
    // parse that silently clamps, and never a throw.
    static const char* kJunkDeadlines[] = {
        "deadline_ms=",          "deadline_ms=-5",
        "deadline_ms=+5",        "deadline_ms=abc",
        "deadline_ms=0",         "deadline_ms=86400001",
        "deadline_ms=99999999999999999999999999", "deadline_ms=12x",
        "deadline_ms=0x10",      "deadline_ms= 7"};
    for (const char* junkOpt : kJunkDeadlines) {
      serve::ParseError perr;
      if (serve::parseRequestLine(std::string("D1 ") + junkOpt, &perr) ||
          perr.field != "deadline_ms") {
        std::cerr << "FAIL seed " << seed << ": junk '" << junkOpt
                  << "' was not a structured deadline_ms error\n";
        ok = false;
        break;
      }
      ++tally.protocolLines;
    }
  }

  if (opt.verbose)
    std::cout << "seed " << seed << ": " << chip.name << " "
              << chip.routingGrid.width() << "x" << chip.routingGrid.height()
              << ", " << chip.valves.size() << " valves, delta " << chip.delta
              << (serial.complete ? ", complete" : ", INCOMPLETE")
              << (ok ? "" : "  <-- FAILED") << '\n';
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parseOptions(argc, argv, opt)) return usage();

  Tally tally;
  serve::Server server(opt.jobs);  // shared across all seeds (property e)
  for (std::uint32_t i = 0; i < opt.designs; ++i) {
    const std::uint32_t seed = opt.seed + i;
    // Trace the first design end to end (serial + parallel runs) so the
    // tracing subsystem is exercised under the harness build's sanitizers.
    const bool traceThis = i == 0 && !opt.tracePath.empty();
    if (traceThis) trace::beginSession(trace::Level::kSearch);
    try {
      if (!runDesign(opt, server, seed, tally)) ++tally.failures;
    } catch (const std::exception& e) {
      // Generator/pipeline exceptions on a feasible random design are
      // harness bugs too -- surface them with the seed.
      std::cerr << "FAIL seed " << seed << ": exception: " << e.what() << '\n';
      ++tally.failures;
      ++tally.designs;
    }
    if (traceThis) {
      const auto events = trace::endSession();
      if (!trace::writeChromeTrace(opt.tracePath, events)) {
        std::cerr << "FAIL: cannot write trace file " << opt.tracePath << '\n';
        ++tally.failures;
      } else {
        std::cout << "trace: wrote " << opt.tracePath << " (" << events.size()
                  << " spans)\n";
      }
    }
  }

  std::cout << "pacor_fuzz: " << tally.designs << " designs (base seed " << opt.seed
            << ", jobs " << opt.jobs << "), " << tally.complete
            << " routed to completion, " << tally.clusters << " clusters total, "
            << "eco steps " << tally.ecoIdentity << " identity / "
            << tally.ecoIncremental << " incremental / " << tally.ecoFull
            << " full, " << tally.fpva << " fpva arrays, "
            << tally.protocolLines << " protocol lines, " << tally.failures
            << " failure(s)\n";
  return tally.failures == 0 ? 0 : 1;
}
