#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>
#include <stdexcept>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "common/deadline.h"
#include "common/file_util.h"
#include "common/frame.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/subprocess.h"
#include "common/thread_pool.h"

namespace trap::common {
namespace {

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.UniformInt(0, 1 << 30) != b.UniformInt(0, 1 << 30)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntSingletonRange) {
  Rng rng(7);
  EXPECT_EQ(rng.UniformInt(3, 3), 3);
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(9);
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform();
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
  EXPECT_LT(lo, 0.05);
  EXPECT_GT(hi, 0.95);
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(11);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 4000; ++i) ++counts[static_cast<size_t>(rng.WeightedIndex(weights))];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1]);
  // counts[2]/counts[1] should be near 3.
  double ratio = static_cast<double>(counts[2]) / counts[1];
  EXPECT_NEAR(ratio, 3.0, 0.6);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkIndependence) {
  Rng a(99);
  Rng child = a.Fork();
  // Parent continues deterministically regardless of child draws.
  Rng b(99);
  Rng child_b = b.Fork();
  (void)child_b;
  for (int i = 0; i < 16; ++i) (void)child.Uniform();
  EXPECT_EQ(a.UniformInt(0, 1 << 20), b.UniformInt(0, 1 << 20));
}

TEST(HashTest, HashToUnitInRange) {
  for (uint64_t i = 0; i < 1000; ++i) {
    double u = HashToUnit(HashCombine(i, i * 31));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(HashTest, HashCombineOrderMatters) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(StatsTest, MeanVarianceStdDev) {
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(StdDev(xs), 2.138, 0.001);
}

TEST(StatsTest, MeanOfEmptyIsZero) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(Variance({}), 0.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  std::vector<double> neg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, neg), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantIsZero) {
  std::vector<double> xs = {1, 1, 1, 1};
  std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_EQ(PearsonCorrelation(xs, ys), 0.0);
}

TEST(StatsTest, QuantileEndpoints) {
  std::vector<double> xs = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 3.0);
}

TEST(StringTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"x"}, ", "), "x");
}

TEST(StringTest, SplitWhitespace) {
  std::vector<std::string> parts = SplitWhitespace("  a  b\tc\n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

TEST(StringTest, ToLower) {
  EXPECT_EQ(ToLower("AbC"), "abc");
}

TEST(ThreadPoolTest, ParallelForRunsEveryIteration) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<int> hits(kN, 0);
  pool.ParallelFor(kN, [&](size_t i) { hits[i] += static_cast<int>(i) + 1; });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i], static_cast<int>(i) + 1);
  }
}

TEST(ThreadPoolTest, ParallelForZeroItemsIsNoOp) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [](size_t i) {
                         if (i % 7 == 3) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives a throwing batch and runs the next one normally.
  std::atomic<int> ok{0};
  pool.ParallelFor(16, [&](size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 16);
}

TEST(ThreadPoolTest, SerialPoolPropagatesException) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.ParallelFor(8, [](size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
}

TEST(ThreadPoolTest, NestedParallelForIsRejectedAndRunsSerial) {
  ThreadPool pool(4);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 32;
  std::vector<int64_t> sums(kOuter, 0);
  std::atomic<int> nested_in_loop{0};
  pool.ParallelFor(kOuter, [&](size_t o) {
    // Every thread running batch iterations (workers and the submitting
    // caller alike) is inside a parallel loop here...
    if (ThreadPool::InParallelLoop()) ++nested_in_loop;
    // ...so this inner call must not re-enter the pool; it runs serially on
    // the current thread and still computes the right answer.
    pool.ParallelFor(kInner, [&](size_t i) {
      sums[o] += static_cast<int64_t>(i);
    });
  });
  EXPECT_EQ(nested_in_loop.load(), static_cast<int>(kOuter));
  for (size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(sums[o], static_cast<int64_t>(kInner * (kInner - 1) / 2));
  }
}

TEST(ThreadPoolTest, NotInParallelLoopOutsideBatches) {
  EXPECT_FALSE(ThreadPool::InParallelLoop());
  ThreadPool pool(2);
  pool.ParallelFor(4, [](size_t) {});
  EXPECT_FALSE(ThreadPool::InParallelLoop());
}

TEST(ThreadPoolTest, ConcurrentReductionIntoSlotsIsDeterministic) {
  // The project-wide reduction pattern: parallel writes into pre-sized
  // slots, serial fold afterwards — identical for any pool size.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<double> slots(257, 0.0);
    pool.ParallelFor(slots.size(), [&](size_t i) {
      slots[i] = std::sqrt(static_cast<double>(i)) * 1.000001;
    });
    return std::accumulate(slots.begin(), slots.end(), 0.0);
  };
  double serial = run(1);
  double parallel = run(4);
  EXPECT_EQ(serial, parallel);  // bit-identical, not just approximately
}

TEST(ThreadPoolTest, SerialPoolRunsInlineOnCallingThread) {
  // A pool without workers runs every iteration on the submitting thread,
  // inside a parallel loop as far as nested calls are concerned.
  ThreadPool pool(1);
  const std::thread::id self = std::this_thread::get_id();
  std::vector<std::thread::id> ran(8);
  pool.ParallelFor(ran.size(), [&](size_t i) {
    ran[i] = std::this_thread::get_id();
    EXPECT_TRUE(ThreadPool::InParallelLoop());
  });
  for (const std::thread::id& id : ran) EXPECT_EQ(id, self);
  EXPECT_FALSE(ThreadPool::InParallelLoop());
}

TEST(ThreadPoolTest, ParallelForGrainedRunsEveryIterationOnce) {
  // Workers claim one iteration at a time; whatever the loop size and pool
  // width, each index runs exactly once.
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    for (size_t n : {1u, 3u, 7u, 64u, 257u, 1000u}) {
      std::vector<int> hits(n, 0);
      pool.ParallelFor(n, [&](size_t i) { ++hits[i]; });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i], 1) << "threads=" << threads << " n=" << n
                              << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForGrainedPropagatesException) {
  // A single throwing iteration deep in the batch surfaces on the caller,
  // and the pool runs the next batch in full.
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [](size_t i) {
                                  if (i == 57) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  std::atomic<int> ok{0};
  pool.ParallelFor(100, [&](size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 100);
}

TEST(ThreadPoolTest, GlobalPoolIsUsableAndSized) {
  ThreadPool& pool = GlobalPool();
  EXPECT_GE(pool.num_threads(), 1);
  std::atomic<int> calls{0};
  common::ParallelFor(10, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 10);
}

std::string ReadBack(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(FileUtilTest, AtomicWriteFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/trap_file_util.txt";
  ASSERT_TRUE(AtomicWriteFile(path, "hello\nworld\n").ok());
  EXPECT_EQ(ReadBack(path), "hello\nworld\n");
  // Overwrite goes through the same tmp+rename path.
  ASSERT_TRUE(AtomicWriteFile(path, "v2").ok());
  EXPECT_EQ(ReadBack(path), "v2");
  // No stray .tmp left behind after a successful publish.
  EXPECT_FALSE(std::ifstream(path + ".tmp").is_open());
}

TEST(FileUtilTest, UnwritablePathFails) {
  EXPECT_FALSE(AtomicWriteFile("/no/such/dir/trap.txt", "x").ok());
}

TEST(JsonTest, ParseJsonHandlesNestingStringsAndNumbers) {
  StatusOr<JsonValue> v = ParseJson(
      "{\"a\": [1, 2.5, -3], \"b\": {\"c\": \"x\\\"y\\n\"}, "
      "\"t\": true, \"n\": null, \"h\": \"0x00000000000000ff\"}");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_NE(v->Find("a"), nullptr);
  EXPECT_EQ(v->Find("a")->items.size(), 3u);
  EXPECT_EQ(v->Find("a")->items[1].number_value, 2.5);
  EXPECT_EQ(v->Find("b")->Find("c")->string_value, "x\"y\n");
  EXPECT_EQ(v->BoolAt("t"), true);
  EXPECT_EQ(v->HexAt("h"), 255u);
  EXPECT_FALSE(ParseJson("{\"unterminated\": ").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
}

// WriteJson prints numbers with %.17g, so ParseJson gets the exact bits
// back: serve and Remote frames and BENCH_*.json reports rely on it.
TEST(JsonTest, WriteParseRoundTripIsBitExact) {
  const double values[] = {0.05, 0.1, std::numeric_limits<double>::denorm_min(),
                           2.5e-310};
  JsonValue doc = JsonValue::Array();
  for (double d : values) doc.Push(JsonValue::Number(d));
  StatusOr<JsonValue> back = ParseJson(WriteJson(doc));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->items.size(), std::size(values));
  for (size_t i = 0; i < std::size(values); ++i) {
    const double got = back->items[i].number_value;
    EXPECT_EQ(std::memcmp(&got, &values[i], sizeof got), 0)
        << "value " << i << " came back as " << got;
  }
}

// IntAt answers only for integers int64 holds; any other number reads as
// absent instead of being cast.
TEST(JsonTest, IntAtRejectsNumbersOutsideInt64) {
  StatusOr<JsonValue> v = ParseJson(
      "{\"neg_huge\": -1e300, \"huge\": 1e30, \"inf\": 1e400, "
      "\"half\": 1.5, \"neg_zero\": -0.0, \"whole\": 42.0, "
      "\"min\": -9223372036854775808, \"top\": 9223372036854774784, "
      "\"past_top\": 9223372036854775808, "
      "\"below_min\": -9223372036854777856}");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  for (const char* key : {"neg_huge", "huge", "inf", "half", "past_top",
                          "below_min", "missing"}) {
    EXPECT_FALSE(v->IntAt(key).has_value()) << key;
  }
  EXPECT_EQ(v->IntAt("neg_zero"), 0);
  EXPECT_EQ(v->IntAt("whole"), 42);
  EXPECT_EQ(v->IntAt("min"), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(v->IntAt("top"), std::int64_t{9223372036854774784});
}

TEST(FrameTest, EncodeDecodeRoundTrips) {
  FrameDecoder decoder;
  const std::string a = EncodeFrame("{\"x\":1}");
  const std::string b = EncodeFrame("");
  decoder.Append(a.data(), a.size());
  decoder.Append(b.data(), b.size());
  std::string payload;
  EXPECT_EQ(decoder.Next(&payload, nullptr), FrameDecoder::Result::kFrame);
  EXPECT_EQ(payload, "{\"x\":1}");
  EXPECT_EQ(decoder.Next(&payload, nullptr), FrameDecoder::Result::kFrame);
  EXPECT_EQ(payload, "");
  EXPECT_EQ(decoder.Next(&payload, nullptr), FrameDecoder::Result::kNeedMore);
}

TEST(FrameTest, ByteAtATimeDelivery) {
  // Frames must reassemble regardless of how the pipe fragments them.
  FrameDecoder decoder;
  const std::string frame = EncodeFrame("payload with spaces");
  std::string payload;
  for (size_t i = 0; i < frame.size(); ++i) {
    decoder.Append(frame.data() + i, 1);
    const FrameDecoder::Result r = decoder.Next(&payload, nullptr);
    if (i + 1 < frame.size()) {
      ASSERT_EQ(r, FrameDecoder::Result::kNeedMore) << "at byte " << i;
    } else {
      EXPECT_EQ(r, FrameDecoder::Result::kFrame);
    }
  }
  EXPECT_EQ(payload, "payload with spaces");
}

TEST(FrameTest, GarbageIsMalformedAndSticky) {
  FrameDecoder decoder;
  const std::string garbage = "GARBAGE-NOT-A-FRAME\n";
  decoder.Append(garbage.data(), garbage.size());
  std::string payload;
  std::string error;
  EXPECT_EQ(decoder.Next(&payload, &error), FrameDecoder::Result::kMalformed);
  EXPECT_FALSE(error.empty());
  // A corrupted stream is never resynchronized: even a valid frame after
  // the garbage stays malformed.
  const std::string frame = EncodeFrame("ok");
  decoder.Append(frame.data(), frame.size());
  EXPECT_EQ(decoder.Next(&payload, &error), FrameDecoder::Result::kMalformed);
}

TEST(FrameTest, RejectsOversizedAndNonNumericLengths) {
  {
    FrameDecoder decoder;
    const std::string bad = "TRAPF 99999999999999\n";
    decoder.Append(bad.data(), bad.size());
    std::string payload;
    EXPECT_EQ(decoder.Next(&payload, nullptr),
              FrameDecoder::Result::kMalformed);
  }
  {
    FrameDecoder decoder;
    const std::string bad = "TRAPF 12x\n";
    decoder.Append(bad.data(), bad.size());
    std::string payload;
    EXPECT_EQ(decoder.Next(&payload, nullptr),
              FrameDecoder::Result::kMalformed);
  }
}

TEST(SubprocessTest, EchoRoundTripAndReap) {
  StatusOr<Subprocess> spawned = SpawnWithPipes({"/bin/cat"});
  ASSERT_TRUE(spawned.ok()) << spawned.status().ToString();
  Subprocess p = *spawned;
  const std::string msg = "ping\n";
  ASSERT_EQ(write(p.stdin_fd, msg.data(), msg.size()),
            static_cast<ssize_t>(msg.size()));
  char buf[64] = {};
  ASSERT_EQ(read(p.stdout_fd, buf, sizeof buf),
            static_cast<ssize_t>(msg.size()));
  EXPECT_EQ(std::string(buf, msg.size()), msg);
  ClosePipes(&p);  // EOF on stdin: cat exits 0
  EXPECT_EQ(Reap(&p), 0);
}

TEST(SubprocessTest, KillIsReportedAsSignal) {
  StatusOr<Subprocess> spawned = SpawnWithPipes({"/bin/cat"});
  ASSERT_TRUE(spawned.ok()) << spawned.status().ToString();
  Subprocess p = *spawned;
  Kill(&p);
  EXPECT_EQ(Reap(&p), -SIGKILL);
  ClosePipes(&p);
}

}  // namespace
}  // namespace trap::common
