// Performance-model tests: the machine profiles must reproduce the
// *shape* of the paper's published numbers (who is faster, by roughly what
// factor, where crossovers fall) — the core of the Tables 2-5 harness.
#include <gtest/gtest.h>

#include "net/simlink.hpp"
#include "sim/machine.hpp"
#include "sim/perf_model.hpp"

namespace rave::sim {
namespace {

constexpr uint64_t kElleTris = 50'000;
constexpr uint64_t kGalleonTris = 5'500;
constexpr uint64_t k400 = 400 * 400;
constexpr uint64_t k200 = 200 * 200;

TEST(Machines, TestbedHasPaperHosts) {
  const auto hosts = testbed();
  ASSERT_EQ(hosts.size(), 6u);
  EXPECT_EQ(profile_by_name("zaurus").tri_rate, 0);
  EXPECT_FALSE(profile_by_name("zaurus").has_renderer());
  EXPECT_TRUE(profile_by_name("laptop").has_renderer());
}

TEST(PerfModel, OnscreenScalesWithTriangles) {
  const MachineProfile m = centrino_laptop();
  EXPECT_GT(onscreen_seconds(m, 1'000'000, k200), onscreen_seconds(m, 10'000, k200));
  EXPECT_GT(onscreen_seconds(m, 10'000, k400), onscreen_seconds(m, 10'000, k200));
}

TEST(PerfModel, OffscreenIsSlowerThanOnscreen) {
  for (const MachineProfile& m : {centrino_laptop(), athlon_desktop(), v880z()}) {
    EXPECT_GT(offscreen_sequential_seconds(m, kElleTris, k400),
              onscreen_seconds(m, kElleTris, k400))
        << m.name;
  }
}

// Table 3: off-screen as a percentage of on-screen speed at 400x400.
struct Table3Row {
  const char* dataset;
  uint64_t triangles;
  double geforce_go_pct;   // paper: Elle 35, Galleon 9
  double geforce_gts_pct;  // paper: Elle 40, Galleon 9
  double xvr_pct;          // paper: Elle 3, Galleon 16
};

// Named by value: the default byte dump includes the `dataset` pointer,
// which changes from one process to the next. The dataset is the suffix.
void PrintTo(const Table3Row& row, std::ostream* os) {
  *os << row.triangles << " tris, " << row.geforce_go_pct << "/" << row.geforce_gts_pct << "/"
      << row.xvr_pct << " pct";
}

class Table3Test : public testing::TestWithParam<Table3Row> {};

TEST_P(Table3Test, OffscreenPercentInBand) {
  const Table3Row& row = GetParam();
  const auto pct = [&](const MachineProfile& m) {
    return 100.0 * onscreen_seconds(m, row.triangles, k400) /
           offscreen_sequential_seconds(m, row.triangles, k400);
  };
  // Within a factor of ~2 of the published percentage — the shape, not the
  // absolute fit.
  EXPECT_GT(pct(centrino_laptop()), row.geforce_go_pct * 0.5);
  EXPECT_LT(pct(centrino_laptop()), row.geforce_go_pct * 2.0);
  EXPECT_GT(pct(athlon_desktop()), row.geforce_gts_pct * 0.5);
  EXPECT_LT(pct(athlon_desktop()), row.geforce_gts_pct * 2.0);
  EXPECT_GT(pct(v880z()), row.xvr_pct * 0.3);
  EXPECT_LT(pct(v880z()), row.xvr_pct * 2.5);
}

INSTANTIATE_TEST_SUITE_P(PaperRows, Table3Test,
                         testing::Values(Table3Row{"Elle", kElleTris, 35, 40, 3},
                                         Table3Row{"Galleon", kGalleonTris, 9, 9, 16}),
                         [](const auto& info) { return info.param.dataset; });

TEST(Table3Shape, XvrOffscreenCollapsesOnBigScenes) {
  // The paper's surprising row: the fast XVR-4000 falls to 3% off-screen
  // on Elle (software fallback) while the laptops hold 35-40%.
  const auto pct = [&](const MachineProfile& m) {
    return 100.0 * onscreen_seconds(m, kElleTris, k400) /
           offscreen_sequential_seconds(m, kElleTris, k400);
  };
  EXPECT_LT(pct(v880z()), pct(centrino_laptop()) / 3.0);
  EXPECT_LT(pct(v880z()), 10.0);
}

TEST(Table4Shape, InterleavingRecoversThroughputOnLinuxBoxes) {
  // Paper Table 4 (200x200, 4 images): 420 Go seq 55% → int 90%;
  // GTS seq 51% → int 90%; XVR barely moves (3% → 4%).
  for (const MachineProfile& m : {centrino_laptop(), athlon_desktop()}) {
    const OffscreenBatch batch = offscreen_batch(m, kElleTris, k200, 4);
    EXPECT_GT(batch.sequential_percent(), 30.0) << m.name;
    EXPECT_LT(batch.sequential_percent(), 75.0) << m.name;
    EXPECT_GT(batch.interleaved_percent(), 70.0) << m.name;
    EXPECT_GT(batch.interleaved_percent(), batch.sequential_percent() * 1.3) << m.name;
  }
  const OffscreenBatch sun = offscreen_batch(v880z(), kElleTris, k200, 4);
  EXPECT_LT(sun.interleaved_percent(), 12.0);
  EXPECT_LT(sun.interleaved_percent() - sun.sequential_percent(), 5.0);
}

TEST(Table4Shape, GalleonBenefitsLessFromInterleavingThanElle) {
  // Small scenes stay overhead-dominated: Galleon int ~33-48% vs Elle ~90%.
  const OffscreenBatch galleon = offscreen_batch(centrino_laptop(), kGalleonTris, k200, 4);
  const OffscreenBatch elle = offscreen_batch(centrino_laptop(), kElleTris, k200, 4);
  EXPECT_LT(galleon.interleaved_percent(), elle.interleaved_percent());
}

TEST(Table2Shape, PdaFrameBreakdownMatchesPaper) {
  // Paper Table 2: hand 2.9 fps (latency 0.339 s: receipt 0.201, render
  // 0.091, other 0.047); skeleton 1.6 fps (0.598: 0.194/0.355/0.049).
  const MachineProfile server = centrino_laptop();
  const MachineProfile pda = zaurus_pda();
  const net::LinkProfile wireless = net::wireless_11mbit();

  const ThinClientFrame hand = thin_client_frame(server, pda, wireless, 830'000, 200, 200);
  EXPECT_NEAR(hand.transfer_seconds, 0.20, 0.06);
  EXPECT_NEAR(hand.render_seconds, 0.091, 0.04);
  EXPECT_NEAR(hand.client_seconds, 0.047, 0.02);
  EXPECT_NEAR(hand.fps(), 2.9, 1.0);

  const ThinClientFrame skeleton =
      thin_client_frame(server, pda, wireless, 2'800'000, 200, 200);
  EXPECT_NEAR(skeleton.render_seconds, 0.355, 0.12);
  EXPECT_NEAR(skeleton.fps(), 1.6, 0.6);
  EXPECT_LT(skeleton.fps(), hand.fps());
}

TEST(Table2Shape, VgaFrameDropsBelowOneFps) {
  // Paper §5.1: "for a 640x480 ... image (920Kb in size), this would
  // result in around 0.6 frames per second".
  const ThinClientFrame vga = thin_client_frame(centrino_laptop(), zaurus_pda(),
                                                net::wireless_11mbit(), 830'000, 640, 480);
  EXPECT_LT(vga.fps(), 1.0);
  EXPECT_GT(vga.fps(), 0.3);
}

TEST(Table2Shape, CompressionRaisesFps) {
  const ThinClientFrame raw = thin_client_frame(centrino_laptop(), zaurus_pda(),
                                                net::wireless_11mbit(), 100'000, 200, 200);
  const ThinClientFrame compressed = thin_client_frame(
      centrino_laptop(), zaurus_pda(), net::wireless_11mbit(), 100'000, 200, 200, 30'000);
  EXPECT_GT(compressed.fps(), raw.fps() * 1.5);
}

TEST(Table5Shape, UddiScanAndBootstrapTimings) {
  // Paper Table 5: scan 0.70-0.73 s; full bootstrap 4.2-4.8 s.
  const UddiTiming timing = uddi_timing(centrino_laptop(), 4);
  EXPECT_NEAR(timing.scan_seconds, 0.72, 0.3);
  EXPECT_NEAR(timing.full_bootstrap, 4.5, 1.5);
  EXPECT_GT(timing.full_bootstrap, timing.scan_seconds * 4);
}

TEST(Table5Shape, ServiceBootstrapScalesWithSceneSize) {
  // Paper Table 5: Galleon (0.3 MB) 10.5 s vs hand (20 MB) 68.2 s — the
  // marshalling of per-field scene data dominates.
  const net::LinkProfile ethernet = net::ethernet_100mbit();
  // Field counts ~ what serialize_tree reports: positions+normals+indices.
  const uint64_t galleon_fields = 22'000;
  const uint64_t hand_fields = 3'300'000;
  const double galleon = service_bootstrap_seconds(centrino_laptop(), centrino_laptop(),
                                                   ethernet, galleon_fields, 300'000);
  const double hand = service_bootstrap_seconds(centrino_laptop(), centrino_laptop(), ethernet,
                                                hand_fields, 20'000'000);
  EXPECT_NEAR(galleon, 10.5, 4.0);
  EXPECT_NEAR(hand, 68.2, 20.0);
  EXPECT_GT(hand / galleon, 4.0);
}

TEST(TileLatencyShape, GalleonTileDelaySmallSkeletonLarge) {
  // Paper §5.5: galleon tile update delay ~0.05 s on 100 Mbit; the hand
  // pushes ~0.3 s because render time dominates transport.
  const net::LinkProfile ethernet = net::ethernet_100mbit();
  const MachineProfile m = centrino_laptop();
  const uint64_t tile_pixels = (640 / 2) * 480;
  const double galleon_delay = offscreen_sequential_seconds(m, kGalleonTris, tile_pixels) +
                               ethernet.delivery_seconds(tile_pixels * 7);  // color+depth
  const double hand_delay = offscreen_sequential_seconds(m, 830'000, tile_pixels) +
                            ethernet.delivery_seconds(tile_pixels * 7);
  EXPECT_LT(galleon_delay, 0.12);
  EXPECT_NEAR(hand_delay, 0.3, 0.15);
}

}  // namespace
}  // namespace rave::sim
