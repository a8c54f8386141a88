// SIMD kernel costs: each runtime-dispatched kernel (bitset
// popcount/and/subset, the signature dominance screen) timed at every
// dispatch level the CPU supports, scalar first. The scalar loops are the
// portable fallback the wider levels must beat.

#include <chrono>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "bench_common.hpp"
#include "common/bitset.hpp"

using namespace gcp;
using namespace gcp::bench;

namespace {

double NsPerOp(const std::function<void()>& op, int iters) {
  // One warm-up call keeps first-touch page faults out of the timing.
  op();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) op();
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                 .count()) /
         iters;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const BenchConfig cfg = BenchConfig::FromFlags(flags);
  std::printf("# SIMD kernels at every dispatch level\n");

  std::unique_ptr<JsonWriter> json;
  if (!cfg.json_path.empty()) {
    json = std::make_unique<JsonWriter>(cfg.json_path, "copy_costs", cfg);
  }
  const simd::SimdLevel detected = simd::DetectedSimdLevel();

  std::printf("\n%-22s %-8s %12s\n", "kernel", "level", "ns/op");
  {
    std::mt19937_64 prng(cfg.seed);
    constexpr std::size_t kWords = 4096;  // 256 Kbit bitsets
    std::vector<std::uint64_t> a(kWords), b(kWords);
    for (auto& w : a) w = prng();
    for (auto& w : b) w = prng();
    constexpr std::size_t kSigs = 2048;
    std::vector<std::uint64_t> sigs(kSigs);
    for (auto& s : sigs) s = prng() & 0x3333333333333333ULL;  // small nibbles
    std::vector<std::uint32_t> survivors(kSigs);
    volatile std::uint64_t sink = 0;

    for (int lv = 0; lv <= static_cast<int>(detected); ++lv) {
      const auto level = static_cast<simd::SimdLevel>(lv);
      simd::SetSimdLevel(level);
      struct Kernel {
        const char* name;
        std::function<void()> op;
      };
      const Kernel kernels[] = {
          {"popcount_4096w",
           [&] { sink = sink + simd::PopcountWords(a.data(), kWords); }},
          {"and_4096w",
           [&] { simd::AndWords(a.data(), b.data(), kWords); }},
          {"popcount_and_4096w",
           [&] {
             sink = sink + simd::PopcountAndWords(a.data(), b.data(), kWords);
           }},
          {"subset_4096w",
           [&] {
             sink = sink + (simd::SubsetWords(a.data(), b.data(), kWords) ? 1 : 0);
           }},
          {"sig_screen_2048",
           [&] {
             sink = sink + simd::SignatureDominanceScreen(
                 0x1111111111111111ULL, sigs.data(), kSigs, survivors.data());
           }},
      };
      for (const Kernel& k : kernels) {
        const double ns = NsPerOp(k.op, 2000);
        std::printf("%-22s %-8s %12.1f\n", k.name,
                    simd::SimdLevelName(level), ns);
        if (json != nullptr) {
          char buf[256];
          std::snprintf(buf, sizeof(buf),
                        "\"kind\": \"kernel\", \"kernel\": \"%s\", "
                        "\"level\": \"%s\", \"ns_per_op\": %.1f",
                        k.name,
                        simd::SimdLevelName(level), ns);
          json->Row(buf);
        }
      }
    }
    (void)sink;
  }
  // Leave the process-global dispatch cap in its default state.
  simd::SetSimdLevel(detected);

  std::printf("\n# Expected shape: higher levels must not be slower.\n");
  return 0;
}
