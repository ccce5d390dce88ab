// Tests of the benchmark's own accounting: span self times, the unattributed
// remainder, and the quantile helpers. Exits non-zero if any check fails.
//
//   python3 cadbench/run.py --self-test

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "spans.h"

namespace {

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    std::cerr << "FAILED: " << what << "\n";
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

// A container A (100) holding layer B (30, which holds layer C, 10) and
// layer D (20); a root layer E (15); traced total 120. Self times: A 50,
// B 20, C 10, D 20, E 15. Layers account for 65, so 55 is unattributed:
// A's own 50 plus 5 outside every span.
void TestSelfTimeOnNestedSpans() {
  cadbench::SpanLog log;
  const int a = log.Add(-1, "observe", 100, /*layer=*/false);
  const int b = log.Add(a, "commute.build", 30);
  log.Add(b, "linalg.pcg", 10);
  log.Add(a, "core.score", 20);
  log.Add(-1, "io.parse", 15);

  const std::vector<double> self = log.SelfNs();
  Expect(Near(self[0], 50), "container self time");
  Expect(Near(self[1], 20), "layer self time excludes its child");
  Expect(Near(self[2], 10), "leaf self time is its duration");
  Expect(Near(self[3], 20), "sibling self time");
  Expect(Near(self[4], 15), "root layer self time");

  const auto layers = log.LayerSelfNs();
  Expect(layers.count("observe") == 0, "containers are not layers");
  Expect(Near(layers.at("commute.build"), 20), "layer self by name");
  Expect(Near(log.UnattributedNs(120), 55), "unattributed remainder");
  Expect(Near(log.TotalNs().at("observe"), 100), "totals include children");
}

// Repeated names sum; a beside measurement larger than its container makes
// the container's self time negative rather than hiding the mismatch.
void TestRepeatedNamesAndOverestimate() {
  cadbench::SpanLog log;
  const int first = log.Add(-1, "observe", 10, /*layer=*/false);
  log.Add(first, "core.score", 4);
  const int second = log.Add(-1, "observe", 10, /*layer=*/false);
  log.Add(second, "core.score", 12);
  Expect(Near(log.LayerSelfNs().at("core.score"), 16), "names sum");
  Expect(Near(log.SelfNs()[2], -2), "overestimate shows as negative self");
  Expect(Near(log.UnattributedNs(20), 4), "remainder nets out");
}

// Open/Close nests by call order.
void TestScopedSpansNest() {
  cadbench::SpanLog log;
  {
    cadbench::ScopedSpan outer(&log, "outer", /*layer=*/false);
    cadbench::ScopedSpan inner(&log, "inner");
  }
  Expect(log.spans().size() == 2, "two spans recorded");
  Expect(log.spans()[1].parent == 0, "inner span's parent is outer");
  Expect(log.spans()[0].duration_ns >= log.spans()[1].duration_ns,
         "outer covers inner");
}

void TestQuantiles() {
  Expect(Near(cadbench::Quantile({}, 0.5), 0.0), "empty quantile");
  Expect(Near(cadbench::Median({3, 1, 2}), 2.0), "odd median");
  Expect(Near(cadbench::Median({4, 1, 2, 3}), 2.5), "even median");
  Expect(Near(cadbench::Quantile({0, 10}, 0.99), 9.9), "interpolation");
  Expect(cadbench::TailLevel(1000) == 0.99, "p99 needs 1000 samples");
  Expect(cadbench::TailLevel(999) == 0.9, "999 samples give p90");
  Expect(cadbench::TailLevel(40) == 0.75, "40 samples give p75");
  Expect(cadbench::TailLevel(39) == 0.5, "fewer fall back to the median");
}

}  // namespace

int main() {
  TestSelfTimeOnNestedSpans();
  TestRepeatedNamesAndOverestimate();
  TestScopedSpansNest();
  TestQuantiles();
  if (failures > 0) {
    std::cerr << failures << " check(s) failed\n";
    return EXIT_FAILURE;
  }
  std::cout << "cadbench_tests: all checks passed\n";
  return EXIT_SUCCESS;
}
