// Exercises the stable C facade (include/toma/toma.h) end to end. The
// assertions go through the C surface only — pools, streams, statuses —
// so this doubles as a compile-time check that the header stays usable
// without any C++ toma headers.
#include "toma/toma.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace {

constexpr size_t kMiB = 1024 * 1024;

toma_pool_config_t small_cfg() {
  toma_pool_config_t cfg = toma_pool_config_default();
  cfg.pool_bytes = 4 * kMiB;
  cfg.num_arenas = 2;
  return cfg;
}

TEST(TomaC, StatusStrings) {
  EXPECT_STREQ(toma_status_str(TOMA_OK), "TOMA_OK");
  EXPECT_STREQ(toma_status_str(TOMA_ERR_QUOTA), "TOMA_ERR_QUOTA");
  EXPECT_STREQ(toma_status_str(TOMA_ERR_OOM), "TOMA_ERR_OOM");
}

TEST(TomaC, ConfigDefaultsAreLibraryDefaults) {
  const toma_pool_config_t cfg = toma_pool_config_default();
  EXPECT_GT(cfg.pool_bytes, 0u);
  EXPECT_GT(cfg.num_arenas, 0u);
  EXPECT_EQ(cfg.quota_bytes, 0u);                             // unlimited
  EXPECT_EQ(cfg.release_threshold, TOMA_RELEASE_RETAIN_ALL);  // retain
  EXPECT_EQ(cfg.heapsan, -1);                                 // build default
  EXPECT_EQ(cfg.stream_async, -1);
  EXPECT_EQ(cfg.defrag_mode, 0);                              // no compaction
}

TEST(TomaC, PoolLifecycle) {
  toma_pool_config_t cfg = small_cfg();
  toma_pool_t pool = nullptr;
  ASSERT_EQ(toma_pool_create("capi-basic", &cfg, &pool), TOMA_OK);
  ASSERT_NE(pool, nullptr);
  EXPECT_STREQ(toma_pool_name(pool), "capi-basic");
  EXPECT_EQ(toma_pool_find("capi-basic"), pool);

  toma_pool_t dup = nullptr;
  EXPECT_EQ(toma_pool_create("capi-basic", &cfg, &dup), TOMA_ERR_EXISTS);
  EXPECT_EQ(dup, nullptr);

  EXPECT_EQ(toma_pool_destroy(pool), TOMA_OK);
  EXPECT_EQ(toma_pool_find("capi-basic"), nullptr);
}

TEST(TomaC, CreateRejectsBadArguments) {
  toma_pool_config_t cfg = small_cfg();
  toma_pool_t pool = nullptr;
  EXPECT_EQ(toma_pool_create(nullptr, &cfg, &pool), TOMA_ERR_INVALID);
  EXPECT_EQ(toma_pool_create("", &cfg, &pool), TOMA_ERR_INVALID);
  for (const int mode : {-1, 3}) {  // defrag_mode accepts 0..2 only
    cfg.defrag_mode = mode;
    EXPECT_EQ(toma_pool_create("capi-bad", &cfg, &pool), TOMA_ERR_INVALID);
  }
  cfg.defrag_mode = 0;
  cfg.pool_bytes = 12345;  // not a power of two
  EXPECT_EQ(toma_pool_create("capi-bad", &cfg, &pool), TOMA_ERR_INVALID);
  EXPECT_EQ(pool, nullptr);
  EXPECT_EQ(toma_pool_destroy(nullptr), TOMA_ERR_INVALID);
}

TEST(TomaC, DefaultPoolCannotBeDestroyed) {
  toma_pool_t def = toma_default_pool();
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(toma_pool_destroy(def), TOMA_ERR_INVALID);
  EXPECT_EQ(toma_default_pool(), def);
}

TEST(TomaC, MallocFreeWithStatus) {
  toma_pool_config_t cfg = small_cfg();
  toma_pool_t pool = nullptr;
  ASSERT_EQ(toma_pool_create("capi-mf", &cfg, &pool), TOMA_OK);

  toma_status_t st = TOMA_ERR_OOM;
  void* p = toma_malloc(pool, 256, &st);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(st, TOMA_OK);
  EXPECT_GE(toma_usable_size(pool, p), 256u);
  EXPECT_EQ(toma_pool_bytes_in_use(pool), 256u);
  toma_free(pool, p);
  EXPECT_EQ(toma_pool_bytes_in_use(pool), 0u);

  EXPECT_EQ(toma_malloc(pool, 0, &st), nullptr);
  EXPECT_EQ(st, TOMA_ERR_INVALID);
  toma_free(pool, nullptr);  // no-op, must not crash

  EXPECT_EQ(toma_pool_destroy(pool), TOMA_OK);
}

TEST(TomaC, CallocZeroesAndReallocPreserves) {
  toma_pool_config_t cfg = small_cfg();
  toma_pool_t pool = nullptr;
  ASSERT_EQ(toma_pool_create("capi-cr", &cfg, &pool), TOMA_OK);

  auto* p = static_cast<unsigned char*>(toma_calloc(pool, 16, 8, nullptr));
  ASSERT_NE(p, nullptr);
  for (int i = 0; i < 128; ++i) EXPECT_EQ(p[i], 0u);
  std::memset(p, 0xab, 128);

  auto* q = static_cast<unsigned char*>(toma_realloc(pool, p, 4096, nullptr));
  ASSERT_NE(q, nullptr);
  for (int i = 0; i < 128; ++i) EXPECT_EQ(q[i], 0xab);

  toma_status_t st = TOMA_OK;
  EXPECT_EQ(toma_calloc(pool, SIZE_MAX, 2, &st), nullptr);  // overflow
  EXPECT_EQ(st, TOMA_ERR_INVALID);

  toma_free(pool, q);
  EXPECT_EQ(toma_pool_destroy(pool), TOMA_OK);
}

TEST(TomaC, QuotaSurfacesAsQuotaStatus) {
  toma_pool_config_t cfg = small_cfg();
  cfg.quota_bytes = 16 * 1024;
  toma_pool_t pool = nullptr;
  ASSERT_EQ(toma_pool_create("capi-quota", &cfg, &pool), TOMA_OK);
  EXPECT_EQ(toma_pool_quota(pool), 16u * 1024u);

  std::vector<void*> held;
  toma_status_t st = TOMA_OK;
  for (;;) {
    void* p = toma_malloc(pool, 1024, &st);
    if (p == nullptr) break;
    held.push_back(p);
  }
  EXPECT_EQ(st, TOMA_ERR_QUOTA);  // not TOMA_ERR_OOM: the pool has room
  EXPECT_EQ(held.size(), 16u);

  toma_pool_set_quota(pool, 0);  // lift the quota -> admits again
  void* p = toma_malloc(pool, 1024, &st);
  EXPECT_NE(p, nullptr);
  toma_free(pool, p);

  for (void* q : held) toma_free(pool, q);
  EXPECT_EQ(toma_pool_destroy(pool), TOMA_OK);
}

TEST(TomaC, StreamOrderedAllocAndSync) {
  toma_pool_config_t cfg = small_cfg();
  cfg.stream_async = 1;  // deferral is required; don't rely on build default
  toma_pool_t pool = nullptr;
  ASSERT_EQ(toma_pool_create("capi-stream", &cfg, &pool), TOMA_OK);

  toma_stream_t s = toma_stream_create();
  ASSERT_NE(s, nullptr);

  void* p = toma_malloc_async(pool, 256, s, nullptr);
  ASSERT_NE(p, nullptr);
  toma_free_async(pool, p, s);
  // Same-stream reuse: the pending block comes straight back.
  void* q = toma_malloc_async(pool, 256, s, nullptr);
  EXPECT_EQ(q, p);
  toma_free_async(pool, q, s);
  EXPECT_EQ(toma_pool_sync(pool, s), 1u);
  EXPECT_EQ(toma_pool_bytes_in_use(pool), 0u);

  // stream_sync drains the stream across every pool (128 B: above the
  // fixed-lane threshold, so the free actually defers).
  void* r = toma_malloc_async(pool, 128, s, nullptr);
  toma_free_async(pool, r, s);
  EXPECT_EQ(toma_stream_sync(s), 1u);

  toma_stream_destroy(s);
  EXPECT_EQ(toma_pool_destroy(pool), TOMA_OK);
}

TEST(TomaC, NullPoolAndNullStreamMeanDefaults) {
  // NULL pool routes to the default pool; NULL stream to the default
  // stream. The legacy device heap and this path share one heap.
  toma_status_t st = TOMA_ERR_OOM;
  void* p = toma_malloc(nullptr, 128, &st);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(st, TOMA_OK);
  toma_free(nullptr, p);

  void* q = toma_malloc_async(nullptr, 128, nullptr, &st);
  ASSERT_NE(q, nullptr);
  toma_free_async(nullptr, q, nullptr);
  toma_stream_sync(nullptr);
  EXPECT_EQ(toma_pool_bytes_in_use(nullptr), 0u);
}

TEST(TomaC, ReleaseThresholdAndTrim) {
  toma_pool_config_t cfg = small_cfg();
  toma_pool_t pool = nullptr;
  ASSERT_EQ(toma_pool_create("capi-trim", &cfg, &pool), TOMA_OK);
  EXPECT_EQ(toma_pool_release_threshold(pool), TOMA_RELEASE_RETAIN_ALL);
  toma_pool_set_release_threshold(pool, 0);
  EXPECT_EQ(toma_pool_release_threshold(pool), 0u);

  void* p = toma_malloc(pool, 64, nullptr);
  toma_free(pool, p);
  toma_trim(pool);  // must be callable at any point
  EXPECT_EQ(toma_pool_bytes_in_use(pool), 0u);
  EXPECT_EQ(toma_pool_destroy(pool), TOMA_OK);
}

TEST(TomaC, SyncAllDrainsEveryStream) {
  toma_pool_config_t cfg = small_cfg();
  cfg.stream_async = 1;
  toma_pool_t pool = nullptr;
  ASSERT_EQ(toma_pool_create("capi-syncall", &cfg, &pool), TOMA_OK);
  toma_stream_t s1 = toma_stream_create();
  toma_stream_t s2 = toma_stream_create();
  void* a = toma_malloc_async(pool, 128, s1, nullptr);
  void* b = toma_malloc_async(pool, 128, s2, nullptr);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  toma_free_async(pool, a, s1);
  toma_free_async(pool, b, s2);
  EXPECT_EQ(toma_pool_sync_all(pool), 2u);
  EXPECT_EQ(toma_pool_bytes_in_use(pool), 0u);
  EXPECT_EQ(toma_pool_sync_all(pool), 0u) << "second sweep finds nothing";
  toma_stream_destroy(s1);
  toma_stream_destroy(s2);
  EXPECT_EQ(toma_pool_destroy(pool), TOMA_OK);
}

TEST(TomaC, SloTargetAccessors) {
  toma_pool_config_t cfg = small_cfg();
  cfg.slo_latency_ns = 5000;
  toma_pool_t pool = nullptr;
  ASSERT_EQ(toma_pool_create("capi-slo", &cfg, &pool), TOMA_OK);
  EXPECT_EQ(toma_pool_slo(pool), 5000u);
  toma_pool_set_slo(pool, 250);
  EXPECT_EQ(toma_pool_slo(pool), 250u);
  // Violations only accumulate in telemetry builds; through the C surface
  // we can only require the counter to exist and never run backwards.
  const uint64_t before = toma_pool_slo_violations(pool);
  void* p = toma_malloc(pool, 256, nullptr);
  toma_free(pool, p);
  EXPECT_GE(toma_pool_slo_violations(pool), before);
  toma_pool_set_slo(pool, 0);  // 0 disables SLO tracking
  EXPECT_EQ(toma_pool_slo(pool), 0u);
  EXPECT_EQ(toma_pool_destroy(pool), TOMA_OK);
}

TEST(TomaC, FlightRecorderSession) {
  ASSERT_EQ(toma_record_start(0), TOMA_OK);
  EXPECT_EQ(toma_record_active(), 1);
  EXPECT_EQ(toma_record_start(0), TOMA_ERR_EXISTS) << "double start";

  toma_pool_config_t cfg = small_cfg();
  toma_pool_t pool = nullptr;
  ASSERT_EQ(toma_pool_create("capi-rec", &cfg, &pool), TOMA_OK);
  void* p = toma_malloc(pool, 512, nullptr);
  ASSERT_NE(p, nullptr);
  toma_free(pool, p);
  toma_record_stop();
  EXPECT_EQ(toma_record_active(), 0);
  EXPECT_EQ(toma_record_event_count(), 2u) << "one malloc + one free";
  EXPECT_EQ(toma_record_dropped(), 0u);

  const std::string path = testing::TempDir() + "capi.tomarec";
  EXPECT_EQ(toma_record_dump(nullptr), TOMA_ERR_INVALID);
  EXPECT_EQ(toma_record_dump(""), TOMA_ERR_INVALID);
  ASSERT_EQ(toma_record_dump(path.c_str()), TOMA_OK);

  // The dump carries the versioned magic; the binary layout itself is
  // covered by the recorder round-trip tests.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[8] = {};
  ASSERT_EQ(std::fread(magic, 1, 8, f), 8u);
  std::fclose(f);
  EXPECT_EQ(0, std::memcmp(magic, "TOMAREC\x1a", 8));
  std::remove(path.c_str());
  EXPECT_EQ(toma_pool_destroy(pool), TOMA_OK);
}

TEST(TomaC, MetricsExportBothFormats) {
  // Touch a pool so telemetry builds have something to export.
  toma_pool_config_t cfg = small_cfg();
  toma_pool_t pool = nullptr;
  ASSERT_EQ(toma_pool_create("capi-metrics", &cfg, &pool), TOMA_OK);
  void* p = toma_malloc(pool, 128, nullptr);
  toma_free(pool, p);

  EXPECT_EQ(toma_metrics_export(nullptr, TOMA_METRICS_PROMETHEUS),
            TOMA_ERR_INVALID);
  EXPECT_EQ(toma_metrics_export("", TOMA_METRICS_JSON), TOMA_ERR_INVALID);

  const std::string prom = testing::TempDir() + "capi_metrics.prom";
  const std::string json = testing::TempDir() + "capi_metrics.json";
  ASSERT_EQ(toma_metrics_export(prom.c_str(), TOMA_METRICS_PROMETHEUS),
            TOMA_OK);
  ASSERT_EQ(toma_metrics_export(json.c_str(), TOMA_METRICS_JSON), TOMA_OK);

  // JSON always carries the schema envelope, even from an empty registry.
  std::FILE* f = std::fopen(json.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char head[32] = {};
  const size_t n = std::fread(head, 1, sizeof(head) - 1, f);
  std::fclose(f);
  ASSERT_GT(n, 0u);
  EXPECT_NE(std::strstr(head, "\"schema_version\""), nullptr);
  std::remove(prom.c_str());
  std::remove(json.c_str());
  EXPECT_EQ(toma_pool_destroy(pool), TOMA_OK);
}

TEST(TomaC, StreamAsyncToggleInConfig) {
  toma_pool_config_t cfg = small_cfg();
  cfg.stream_async = 0;  // force the front-end off for this pool
  toma_pool_t pool = nullptr;
  ASSERT_EQ(toma_pool_create("capi-sync-only", &cfg, &pool), TOMA_OK);
  toma_stream_t s = toma_stream_create();
  void* p = toma_malloc_async(pool, 128, s, nullptr);
  ASSERT_NE(p, nullptr);
  toma_free_async(pool, p, s);
  // With the front-end off the free completed immediately.
  EXPECT_EQ(toma_pool_bytes_in_use(pool), 0u);
  EXPECT_EQ(toma_pool_sync(pool, s), 0u);
  toma_stream_destroy(s);
  EXPECT_EQ(toma_pool_destroy(pool), TOMA_OK);
}

}  // namespace
