// Walks through Lethe's tuning model (§4.2.6 / §4.3): given a workload mix
// and tree shape, compute the optimal delete-tile granularity h from Eq. 3
// and show the cost curve from Eq. 1. Reproduces the paper's worked
// example: a 400 GB database with 4 KB pages, 50M point queries and 10K
// short range scans per secondary range delete gives h ≈ 102. Then
// measures B on a small in-memory load with default options and shows the
// h that measured shape implies.
//
//   ./tuning_advisor

#include <cstdio>
#include <memory>
#include <string>

#include "src/core/lethe.h"

int main() {
  // The paper's §4.3 example.
  lethe::WorkloadMix mix;
  mix.f_point_query = 5e7;           // 50M point queries...
  mix.f_short_range_query = 1e4;     // ...10K short scans...
  mix.f_secondary_range_delete = 1;  // ...per secondary range delete

  lethe::TreeShape shape;
  shape.total_entries = 400.0 * (1ull << 30) / 4096.0;  // pages in 400GB
  shape.entries_per_page = 1;  // model N/B directly as the page count
  shape.levels = 8;
  shape.false_positive_rate = 0.02;

  double bound = lethe::OptimalDeleteTileBound(mix, shape);
  printf("paper example (400GB, 4KB pages, FPR=0.02):\n");
  printf("  Eq.3 optimal h bound : %.0f   (paper: ~102)\n", bound);
  printf("  chosen power-of-two h: %u\n\n",
         lethe::ChooseDeleteTileGranularity(mix, shape, 1 << 20));

  // Cost curve: how the per-mix I/O cost moves with h (Eq. 1).
  printf("h,workload_cost_page_ios\n");
  for (double h : {1.0, 2.0, 8.0, 32.0, bound, 4 * bound, 16 * bound}) {
    printf("%.0f,%.3e\n", h, lethe::WorkloadCost(mix, shape, h));
  }

  // Sensitivity: the optimal h scales with the relative frequency of
  // secondary range deletes (Eq. 3's denominator).
  printf("\nsecondary_deletes_per_50M_lookups,optimal_h\n");
  for (double srd : {0.1, 1.0, 10.0, 100.0}) {
    lethe::WorkloadMix scaled = mix;
    scaled.f_secondary_range_delete = srd;
    printf("%.1f,%.0f\n", srd,
           lethe::OptimalDeleteTileBound(scaled, shape));
  }

  // And with no secondary deletes, the classic layout wins outright.
  lethe::WorkloadMix no_srd = mix;
  no_srd.f_secondary_range_delete = 0;
  printf("\nwith no secondary range deletes: h = %.0f (classic layout)\n",
         lethe::OptimalDeleteTileBound(no_srd, shape));

  // B is a property of the files, not an input: load 20K 100-byte values
  // with default options, then read N, B and L back from the tree.
  std::unique_ptr<lethe::Env> env = lethe::NewMemEnv();
  lethe::Options options;
  options.env = env.get();
  std::unique_ptr<lethe::DB> db;
  lethe::Status status = lethe::DB::Open(options, "/tuning_advisor", &db);
  const std::string value(100, 'v');
  for (int i = 0; status.ok() && i < 20000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "key%08d", i);
    status = db->Put(lethe::WriteOptions(), key, /*delete_key=*/i, value);
  }
  if (status.ok()) {
    status = db->Flush();
  }
  if (status.ok()) {
    status = db->CompactUntilQuiescent();
  }
  if (!status.ok()) {
    fprintf(stderr, "load failed: %s\n", status.ToString().c_str());
    return 1;
  }
  lethe::TreeShape measured = lethe::MeasuredTreeShape(db->GetLevelSnapshots());
  // A delete-heavier mix than the paper's, sized for a small tree: 1K point
  // queries and 10 short scans per secondary range delete.
  lethe::WorkloadMix small_mix;
  small_mix.f_point_query = 1e3;
  small_mix.f_short_range_query = 10;
  small_mix.f_secondary_range_delete = 1;
  printf("\nmeasured (20K x 100B values, default options, in-memory env):\n");
  printf("  N = %.0f entries, B = %.1f entries/page, L = %.0f\n",
         measured.total_entries, measured.entries_per_page, measured.levels);
  printf("  1K point queries + 10 scans per SRD: Eq.3 h bound %.1f, "
         "chosen h %u\n",
         lethe::OptimalDeleteTileBound(small_mix, measured),
         lethe::ChooseDeleteTileGranularity(small_mix, measured, 1 << 20));
  return 0;
}
