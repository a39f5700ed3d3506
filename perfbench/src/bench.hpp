// Shared pieces of the benchmark program: run arguments, the result report,
// statistics, the host-speed reference, trace summaries and the output
// checks every workload applies to what the router returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "chip/chip.hpp"
#include "pacor/config.hpp"
#include "pacor/eco.hpp"
#include "pacor/result.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";      ///< checkout root (holds src/ and tests/)
  std::string outDir;          ///< scratch files of this run
  Clock::time_point start;     ///< process start, for setup_s
};

/// The one-line result and the notes printed above it.
class Report {
 public:
  void endToEnd(const std::string& name, double value, const std::string& unit) {
    e2e_.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layer_.push_back({name, value, unit});
  }
  void fail(const std::string& why);
  void note(const std::string& line) { notes_.push_back(line); }

  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Prints the notes and the metrics the result line leaves out, then the
  /// JSON result line with the end-to-end metrics (traced == false) or the
  /// per-layer metrics (traced == true).
  void print(bool traced) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<std::string> notes_;
  int errorsShown_ = 0;
};

double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);
double sum(const std::vector<double>& v);

/// The per-run statistic of every end-to-end time: each operation's
/// fastest repeat in the run. The host slows execution in phases of
/// seconds, and a slow phase only ever adds time, so an operation's fastest
/// repeat is the figure that repeats best between runs.
inline double best(const std::vector<double>& v) { return quantile(v, 0.0); }

/// Median and quartile spread of a sample, as one note line.
std::string describe(const std::string& name, const std::vector<double>& v);

/// Every value of a sample in run order, as one note line.
std::string series(const std::string& name, const std::vector<double>& v);

/// Host-speed reference: a dependent walk over a fixed 32 MiB random
/// cycle. Its time moves with the host's speed, not with the router, so a
/// slow host phase shows in the record of a run.
class PointerChase {
 public:
  PointerChase();
  double runMs();  ///< one fixed walk
  std::size_t bytes() const { return next_.size() * sizeof(std::uint32_t); }

 private:
  std::vector<std::uint32_t> next_;
  std::uint32_t pos_ = 0;
};

/// Peak resident set of the process in MB, without the chase buffer.
double peakRssMb(const PointerChase& chase);

/// Per-span-name totals of a trace: count, total and self time.
struct SpanTotals {
  std::int64_t count = 0;
  double totalMs = 0.0;
  double selfMs = 0.0;
};
std::map<std::string, SpanTotals> summarizeTrace(
    const std::vector<pacor::trace::Event>& events);
void noteTraceTable(Report& report, const std::map<std::string, SpanTotals>& spans);

/// The serial configuration every timed call uses.
pacor::core::PacorConfig serialConfig();

std::string solutionHash(const pacor::core::PacorResult& result);

/// The ECO mode name a serve response prints.
const char* ecoModeName(pacor::core::EcoInfo::Mode mode);

/// Channel length and matched-cluster count recomputed from the routed
/// geometry alone (paths as cell sequences, BFS from the pin).
struct Geometry {
  std::int64_t wirelength = 0;
  int matched = 0;
};
Geometry recomputeGeometry(const pacor::chip::Chip& chip,
                           const pacor::core::PacorResult& result);

/// Every check of one routed solution: complete, clean under the
/// independent oracle, and wirelength / matched clusters recomputed from
/// the geometry equal to what the router reported. Returns "" when the
/// solution passes, otherwise the first reason it does not.
std::string checkSolution(const pacor::chip::Chip& chip,
                          const pacor::core::PacorResult& result);

/// The golden Table-1 hashes (`<design> <sha256>` lines); empty when the
/// file cannot be read.
std::map<std::string, std::string> readGolden(const std::string& path);

/// The response line a warm route request must return for a design whose
/// one-shot routing is `result` (byte for byte).
std::string expectedRouteLine(const std::string& design,
                              const pacor::core::PacorResult& result);

/// Compares a serve response line with the expected one; "" when equal.
std::string checkResponse(const std::string& line, const std::string& expected);

/// Per-layer metric names and the PacorResult::metrics entries they sum.
inline const std::vector<std::pair<std::string, std::string>>& resultLayers() {
  static const std::vector<std::pair<std::string, std::string>> layers = {
      {"stage.clustering_s", "time.clustering_s"},
      {"stage.cluster_routing_s", "time.cluster_routing_s"},
      {"stage.escape_s", "time.escape_s"},
      {"stage.detour_s", "time.detour_s"},
      {"escape.flow_run_s", "time.escape_flow_run_s"},
      {"escape.flow_build_s", "time.escape_flow_build_s"},
      {"escape.rounds", "escape.rounds"},
      {"mcf.dijkstra_passes", "escape.flow.dijkstra_passes"},
      {"mcf.settles", "escape.flow.settles"},
      {"mcf.persistent_arcs", "escape.flow.persistent_arcs"},
      {"lm.candidates_built", "lm.candidates_built"},
      {"lm.negotiation_iterations", "lm.negotiation_iterations"},
      {"search.cluster_routing.searches", "search.cluster_routing.searches"},
      {"search.cluster_routing.expansions", "search.cluster_routing.expansions"},
      {"search.detour.bounded_visits", "search.detour.bounded_visits"},
      {"detour.iterations", "detour.iterations"},
      {"detour.reroutes", "detour.reroutes"},
  };
  return layers;
}

/// Adds one result's figures (looked up by `get(resultName)`) to `sums`.
template <typename Get>
void addResultLayers(std::map<std::string, double>& sums, Get&& get) {
  for (const auto& [layer, source] : resultLayers()) sums[layer] += get(source);
}

/// Median over rounds of one summed figure (0 where a round lacks it).
double medianOf(const std::vector<std::map<std::string, double>>& rounds,
                const std::string& name);

/// Reports the median over rounds of every result layer, plus
/// mcf.ns_per_settle derived from the flow-run time and settle count.
void reportResultLayers(Report& report, const std::vector<std::map<std::string, double>>& rounds);

/// A file name for a design token (FPVA specs carry ':', ',' and '=').
std::string chipFileName(std::string token);

/// Writes the chip to `path`, reads it back and checks the two agree.
/// Returns the parsed chip; `error` is set when the round trip differs.
pacor::chip::Chip fileRoundTrip(const pacor::chip::Chip& chip, const std::string& path,
                                std::string& error);

/// Chip of a design token: a Table-1 name or an FPVA spec.
pacor::chip::Chip generateDesign(const std::string& token);

/// Serve-tier probe for one design token: the median warm in-process
/// Server::submit latency of a route request, and the loopback socket's
/// own cost -- client latency minus in-process latency of a `gen` request,
/// which does no routing on a warm context.
struct ServeProbe {
  double executeMs = 0.0;
  double netOverheadMs = 0.0;
};
ServeProbe probeServe(const std::string& token, int repeats);

/// Microseconds per request/response protocol round trip: parse and
/// re-format each request line, parse each response line.
double protocolRoundtripUs(const std::vector<std::string>& requests,
                           const std::vector<std::string>& responses);

int runOneShot(const Args& args, Report& report);
int runServeEco(const Args& args, Report& report);
int runSelfTest(const Args& args);

}  // namespace perfbench
