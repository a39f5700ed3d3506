#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "chip/delta.hpp"
#include "chip/generator.hpp"
#include "chip/io.hpp"
#include "pacor/eco.hpp"
#include "pacor/pipeline.hpp"
#include "pacor/solution_io.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/serve.hpp"
#include "util/rss.hpp"
#include "util/sha256.hpp"

namespace perfbench {

using namespace pacor;

namespace {

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

void Report::fail(const std::string& why) {
  correct = false;
  // The first few reasons are enough to debug; a systematic fault would
  // otherwise repeat once per pass.
  if (errorsShown_ < 20) {
    notes_.push_back("CHECK FAILED: " + why);
    ++errorsShown_;
  }
}

void Report::print(bool traced) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  // The metrics the result line leaves out, as reference lines: the
  // end-to-end figures of a traced run, the layer figures of an untraced one.
  for (const Metric& m : traced ? e2e_ : layer_)
    std::printf("%s %-34s %-12s %s\n", traced ? "e2e" : "layer", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str());
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  const std::vector<Metric>& metrics = traced ? layer_ : e2e_;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::string describe(const std::string& name, const std::vector<double>& v) {
  char buf[320];
  const double med = median(v);
  const double iqr = quantile(v, 0.75) - quantile(v, 0.25);
  std::snprintf(buf, sizeof buf,
                "sample %-14s n=%-5zu min=%-10.6g p10=%-10.6g p25=%-10.6g median=%-10.6g "
                "p95=%-10.6g p99=%-10.6g max=%-10.6g iqr/median=%.4f",
                name.c_str(), v.size(), quantile(v, 0.0), quantile(v, 0.1), quantile(v, 0.25),
                med, quantile(v, 0.95), quantile(v, 0.99), quantile(v, 1.0),
                med > 0.0 ? iqr / med : 0.0);
  return buf;
}

std::string series(const std::string& name, const std::vector<double>& v) {
  std::string out = "series " + name + ":";
  char buf[32];
  for (const double x : v) {
    std::snprintf(buf, sizeof buf, " %.4g", x);
    out += buf;
  }
  return out;
}

PointerChase::PointerChase() : next_((32u << 20) / sizeof(std::uint32_t)) {
  // Sattolo's shuffle: one cycle through every slot, so the walk never
  // settles into a short loop that stays in the inner caches.
  std::iota(next_.begin(), next_.end(), 0u);
  std::mt19937 rng(12345);
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    std::uniform_int_distribution<std::size_t> pick(0, i - 1);
    std::swap(next_[i], next_[pick(rng)]);
  }
}

double PointerChase::runMs() {
  constexpr int kSteps = 1 << 17;
  const auto t0 = Clock::now();
  std::uint32_t p = pos_;
  for (int i = 0; i < kSteps; ++i) p = next_[p];
  pos_ = p;
  return secondsSince(t0) * 1e3;
}

double peakRssMb(const PointerChase& chase) {
  const double kb = static_cast<double>(util::peakRssKb()) -
                    static_cast<double>(chase.bytes()) / 1024.0;
  return kb / 1024.0;
}

std::map<std::string, SpanTotals> summarizeTrace(
    const std::vector<trace::Event>& events) {
  std::map<std::string, SpanTotals> totals;
  std::map<int, std::vector<const trace::Event*>> byThread;
  for (const trace::Event& e : events) byThread[e.tid].push_back(&e);
  for (auto& [tid, list] : byThread) {
    std::sort(list.begin(), list.end(), [](const trace::Event* a, const trace::Event* b) {
      return a->startNs != b->startNs ? a->startNs < b->startNs : a->durNs > b->durNs;
    });
    // Spans of one thread nest; a child's time is removed from its
    // innermost enclosing span.
    std::vector<const trace::Event*> stack;
    for (const trace::Event* e : list) {
      while (!stack.empty() && stack.back()->startNs + stack.back()->durNs <= e->startNs)
        stack.pop_back();
      SpanTotals& t = totals[e->name];
      ++t.count;
      t.totalMs += static_cast<double>(e->durNs) / 1e6;
      t.selfMs += static_cast<double>(e->durNs) / 1e6;
      if (!stack.empty()) totals[stack.back()->name].selfMs -= static_cast<double>(e->durNs) / 1e6;
      stack.push_back(e);
    }
  }
  return totals;
}

void noteTraceTable(Report& report, const std::map<std::string, SpanTotals>& spans) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "span %-34s %8s %12s %12s", "name", "count",
                "total_ms", "self_ms");
  report.note(buf);
  for (const auto& [name, t] : spans) {
    std::snprintf(buf, sizeof buf, "span %-34s %8lld %12.3f %12.3f", name.c_str(),
                  static_cast<long long>(t.count), t.totalMs, t.selfMs);
    report.note(buf);
  }
}

double medianOf(const std::vector<std::map<std::string, double>>& rounds,
                const std::string& name) {
  std::vector<double> v;
  for (const auto& round : rounds) v.push_back(round.count(name) ? round.at(name) : 0.0);
  return median(std::move(v));
}

void reportResultLayers(Report& report,
                        const std::vector<std::map<std::string, double>>& rounds) {
  for (const auto& [layer, source] : resultLayers()) {
    const bool seconds = layer.size() > 2 && layer.compare(layer.size() - 2, 2, "_s") == 0;
    report.layer(layer, medianOf(rounds, layer), seconds ? "s" : "count");
  }
  std::vector<double> ns;
  for (const auto& round : rounds) {
    const double settles = round.count("mcf.settles") ? round.at("mcf.settles") : 0.0;
    if (settles > 0.0) ns.push_back(round.at("escape.flow_run_s") * 1e9 / settles);
  }
  report.layer("mcf.ns_per_settle", median(ns), "ns");
}

core::PacorConfig serialConfig() {
  core::PacorConfig config = core::pacorDefaultConfig();
  config.jobs = 1;
  return config;
}

const char* ecoModeName(core::EcoInfo::Mode mode) {
  switch (mode) {
    case core::EcoInfo::Mode::kIdentity: return "identity";
    case core::EcoInfo::Mode::kIncremental: return "incremental";
    case core::EcoInfo::Mode::kFull: return "full";
  }
  return "?";
}

std::string solutionHash(const core::PacorResult& result) {
  return util::sha256Hex(core::solutionToString(result));
}

chip::Chip generateDesign(const std::string& token) {
  if (chip::isFpvaSpec(token)) return chip::generateFpvaChip(chip::parseFpvaSpec(token));
  for (const chip::GeneratorParams& params : chip::table1Designs())
    if (params.name == token) return chip::generateChip(params);
  throw std::invalid_argument("unknown design " + token);
}

std::string chipFileName(std::string token) {
  for (char& c : token)
    if (c == ':' || c == ',' || c == '=') c = '_';
  return token + ".chip";
}

chip::Chip fileRoundTrip(const chip::Chip& chip, const std::string& path,
                         std::string& error) {
  chip::writeChipFile(path, chip);
  chip::Chip parsed = chip::readChipFile(path);
  if (!chip::chipsEqual(chip, parsed))
    error = chip.name + ": .chip write/read round trip changed the design";
  return parsed;
}

ServeProbe probeServe(const std::string& token, int repeats) {
  constexpr int kGenRepeats = 50;
  ServeProbe probe;
  const std::optional<serve::Request> route = serve::parseRequestLine(token);
  const std::optional<serve::Request> gen = serve::parseRequestLine("gen " + token);
  if (!route || !gen) throw std::runtime_error("probe: unparseable design " + token);
  auto timeMs = [](auto&& call) {
    const auto t0 = Clock::now();
    call();
    return secondsSince(t0) * 1e3;
  };
  std::vector<double> routeMs, genMs;
  {
    serve::Server server(1);
    serve::AdmissionOptions admission;
    admission.maxInflight = 1;
    server.startDispatch(admission);
    server.submit(*route).get();
    for (int r = 0; r < repeats; ++r)
      routeMs.push_back(timeMs([&] {
        trace::Span span("bench.server_submit", "bench");
        const serve::Response resp = server.submit(*route).get();
        if (!resp.ok || !resp.complete)
          throw std::runtime_error("probe: " + serve::formatResponse(resp));
      }));
    for (int r = 0; r < kGenRepeats; ++r)
      genMs.push_back(timeMs([&] { server.submit(*gen).get(); }));
  }
  probe.executeMs = median(routeMs);
  // The socket's own cost: a `gen` request on a warm context does no
  // routing, so client latency minus in-process latency is the net tier.
  serve::net::NetOptions options;
  options.jobs = 1;
  options.admission.maxInflight = 1;
  serve::net::NetServer net(options);
  std::vector<double> clientGenMs;
  {
    serve::net::Client client("127.0.0.1", net.port());
    client.call("gen " + token);
    for (int r = 0; r < kGenRepeats; ++r)
      clientGenMs.push_back(timeMs([&] {
        trace::Span span("bench.client_call", "bench");
        const std::string line = client.call("gen " + token);
        if (line.rfind("ok ", 0) != 0) throw std::runtime_error("probe: " + line);
      }));
  }
  net.beginDrain();
  net.wait();
  probe.netOverheadMs = median(clientGenMs) - median(genMs);
  return probe;
}

double protocolRoundtripUs(const std::vector<std::string>& requests,
                           const std::vector<std::string>& responses) {
  constexpr int kReps = 200;
  std::size_t sink = 0;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    for (const std::string& line : requests)
      if (const auto req = serve::parseRequestLine(line))
        sink += serve::formatRequestLine(*req).size();
    for (const std::string& line : responses)
      if (const auto resp = serve::parseResponseLine(line)) sink += resp->sha256.size();
  }
  const double us = secondsSince(t0) * 1e6;
  const std::size_t trips = std::max(requests.size(), responses.size()) * kReps;
  if (sink == 0) throw std::runtime_error("protocol probe parsed nothing");
  return us / static_cast<double>(std::max<std::size_t>(trips, 1));
}

}  // namespace perfbench
