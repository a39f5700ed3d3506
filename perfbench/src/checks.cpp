#include <cstdio>
#include <deque>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "bench.hpp"
#include "chip/generator.hpp"
#include "pacor/pipeline.hpp"
#include "serve/net.hpp"
#include "verify/oracle.hpp"

namespace perfbench {

using namespace pacor;
using geom::Point;

Geometry recomputeGeometry(const chip::Chip& chip, const core::PacorResult& result) {
  Geometry geo;
  for (const core::RoutedCluster& rc : result.clusters) {
    std::unordered_map<Point, std::vector<Point>> adjacency;
    auto addPath = [&](const route::Path& path) {
      for (std::size_t i = 0; i < path.size(); ++i) {
        adjacency.try_emplace(path[i]);
        if (i > 0) {
          adjacency[path[i - 1]].push_back(path[i]);
          adjacency[path[i]].push_back(path[i - 1]);
        }
      }
    };
    for (const route::Path& path : rc.treePaths) addPath(path);
    addPath(rc.escapePath);
    if (!adjacency.empty()) geo.wirelength += static_cast<std::int64_t>(adjacency.size()) - 1;

    if (!rc.lengthMatchRequested || rc.pin < 0 ||
        static_cast<std::size_t>(rc.pin) >= chip.pins.size())
      continue;
    const Point pinCell = chip.pins[static_cast<std::size_t>(rc.pin)].pos;
    if (!adjacency.contains(pinCell)) continue;
    std::unordered_map<Point, std::int64_t> dist{{pinCell, 0}};
    std::deque<Point> queue{pinCell};
    while (!queue.empty()) {
      const Point p = queue.front();
      queue.pop_front();
      for (const Point q : adjacency.at(p))
        if (dist.emplace(q, dist.at(p) + 1).second) queue.push_back(q);
    }
    std::int64_t lo = -1, hi = -1;
    bool reached = !rc.valves.empty();
    for (const chip::ValveId v : rc.valves) {
      if (v < 0 || static_cast<std::size_t>(v) >= chip.valves.size()) {
        reached = false;
        break;
      }
      const auto it = dist.find(chip.valves[static_cast<std::size_t>(v)].pos);
      if (it == dist.end()) {
        reached = false;
        break;
      }
      lo = lo < 0 ? it->second : std::min(lo, it->second);
      hi = std::max(hi, it->second);
    }
    if (reached && hi - lo <= chip.delta) ++geo.matched;
  }
  return geo;
}

std::string checkSolution(const chip::Chip& chip, const core::PacorResult& result) {
  if (!result.complete) return chip.name + ": routing incomplete";
  const verify::OracleReport oracle = verify::verifySolution(chip, result);
  if (!oracle.clean()) return chip.name + ": oracle: " + oracle.str();
  const Geometry geo = recomputeGeometry(chip, result);
  if (geo.wirelength != result.totalChannelLength)
    return chip.name + ": wirelength " + std::to_string(result.totalChannelLength) +
           " reported, " + std::to_string(geo.wirelength) + " in the geometry";
  if (geo.matched != result.matchedClusterCount)
    return chip.name + ": " + std::to_string(result.matchedClusterCount) +
           " matched clusters reported, " + std::to_string(geo.matched) +
           " in the geometry";
  return "";
}

std::map<std::string, std::string> readGolden(const std::string& path) {
  std::map<std::string, std::string> golden;
  std::ifstream is(path);
  std::string name, hash;
  while (is >> name >> hash) golden[name] = hash;
  return golden;
}

std::string expectedRouteLine(const std::string& design, const core::PacorResult& result) {
  std::ostringstream out;
  out << "ok " << design << " sha256=" << solutionHash(result)
      << " complete=" << (result.complete ? 1 : 0) << " clusters=" << result.clusters.size()
      << " length=" << result.totalChannelLength << " cold_builds=0";
  return out.str();
}

std::string checkResponse(const std::string& line, const std::string& expected) {
  if (line == expected) return "";
  return "response '" + line + "' differs from the one-shot '" + expected + "'";
}

namespace {

struct SelfTest {
  int failures = 0;
  void expect(bool ok, const char* what, const std::string& detail) {
    std::printf("%-4s %-44s %s\n", ok ? "ok" : "FAIL", what, detail.c_str());
    if (!ok) ++failures;
  }
};

}  // namespace

int runSelfTest(const Args& args) {
  SelfTest t;
  const chip::Chip chip = generateDesign("S2");
  const core::PacorResult good = core::routeChip(chip, serialConfig());
  const std::string verdict = checkSolution(chip, good);
  t.expect(verdict.empty(), "unaltered S2 solution passes", verdict);

  // A channel cell dropped from the middle of the longest escape channel.
  {
    core::PacorResult bad = good;
    route::Path* longest = nullptr;
    for (core::RoutedCluster& rc : bad.clusters)
      if (longest == nullptr || rc.escapePath.size() > longest->size())
        longest = &rc.escapePath;
    if (longest != nullptr && longest->size() >= 3)
      longest->erase(longest->begin() + static_cast<std::ptrdiff_t>(longest->size() / 2));
    const std::string why = checkSolution(chip, bad);
    t.expect(!why.empty(), "channel cell dropped is caught", why.substr(0, 120));
  }
  // A reported per-valve length altered.
  {
    core::PacorResult bad = good;
    for (core::RoutedCluster& rc : bad.clusters)
      if (!rc.valveLengths.empty()) {
        rc.valveLengths.front() += 1;
        break;
      }
    const std::string why = checkSolution(chip, bad);
    t.expect(!why.empty(), "valve length altered is caught", why.substr(0, 120));
  }
  // The reported total channel length altered.
  {
    core::PacorResult bad = good;
    bad.totalChannelLength += 1;
    const std::string why = checkSolution(chip, bad);
    t.expect(!why.empty(), "total wirelength altered is caught", why.substr(0, 120));
  }
  // The reported matched-cluster count altered.
  {
    core::PacorResult bad = good;
    bad.matchedClusterCount += 1;
    const std::string why = checkSolution(chip, bad);
    t.expect(!why.empty(), "matched count altered is caught", why.substr(0, 120));
  }
  // A pass whose solution differs from the golden hash.
  {
    const auto golden = readGolden(args.root + "/tests/golden/solution_hashes.txt");
    const auto it = golden.find("S2");
    t.expect(it != golden.end() && it->second == solutionHash(good),
             "golden S2 hash matches", it == golden.end() ? "missing" : "");
    core::PacorResult bad = good;
    bad.clusters.front().tap.x += 1;
    t.expect(it != golden.end() && it->second != solutionHash(bad),
             "altered solution misses the golden hash", "");
  }
  // A serve response with one byte altered.
  {
    serve::net::NetOptions options;
    options.jobs = 1;
    options.admission.maxInflight = 1;
    serve::net::NetServer net(options);
    {
      serve::net::Client client("127.0.0.1", net.port());
      client.call("S2");
      const std::string expected = expectedRouteLine("S2", good);
      const std::string line = client.call("S2");
      t.expect(checkResponse(line, expected).empty(), "warm S2 response equals one-shot",
               line.substr(0, 60));
      std::string bad = line;
      const std::size_t at = bad.find("sha256=") + 7;
      bad[at] = bad[at] == '0' ? '1' : '0';
      t.expect(!checkResponse(bad, expected).empty(),
               "response with one byte altered is caught", bad.substr(0, 60));
    }
    net.beginDrain();
    net.wait();
  }
  std::printf("self-test: %s\n", t.failures == 0 ? "PASS" : "FAIL");
  return t.failures == 0 ? 0 : 1;
}

}  // namespace perfbench
