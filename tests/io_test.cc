// Unit tests for src/io: npy format, tile store, checkpointing, datasets.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <thread>

#include "core/rng.h"
#include "io/checkpoint.h"
#include "io/dataset.h"
#include "io/npy.h"
#include "io/tile_store.h"

namespace tfhpc::io {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("tfhpc_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string path() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

// ---- npy ---------------------------------------------------------------------

TEST(NpyTest, HeaderIsWellFormed) {
  Tensor t = Tensor::FromVector(Shape{2, 2}, std::vector<float>{1, 2, 3, 4});
  std::string enc = EncodeNpy(t);
  ASSERT_GE(enc.size(), 10u);
  EXPECT_EQ(enc.substr(1, 5), "NUMPY");
  EXPECT_EQ(enc[6], '\x01');  // version 1.0
  // Total header (magic..dict) must be a multiple of 64 per the npy spec.
  const size_t hlen = static_cast<uint8_t>(enc[8]) |
                      (static_cast<size_t>(static_cast<uint8_t>(enc[9])) << 8);
  EXPECT_EQ((10 + hlen) % 64, 0u);
  EXPECT_NE(enc.find("'descr': '<f4'"), std::string::npos);
  EXPECT_NE(enc.find("'fortran_order': False"), std::string::npos);
  EXPECT_NE(enc.find("(2, 2)"), std::string::npos);
}

TEST(NpyTest, RoundTripMatrix) {
  Tensor t(DType::kF64, Shape{7, 5});
  FillUniform(t, 11);
  auto r = DecodeNpy(EncodeNpy(t));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->BitwiseEquals(t));
}

TEST(NpyTest, RoundTripVectorTrailingCommaShape) {
  // 1-D shapes serialize as "(5,)" — the parser must handle the trailing comma.
  Tensor t = Tensor::FromVector(std::vector<float>{1, 2, 3, 4, 5});
  std::string enc = EncodeNpy(t);
  EXPECT_NE(enc.find("(5,)"), std::string::npos);
  auto r = DecodeNpy(enc);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->BitwiseEquals(t));
}

TEST(NpyTest, RoundTripScalar) {
  Tensor t = Tensor::Scalar(9.5);
  auto r = DecodeNpy(EncodeNpy(t));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->shape().IsScalar());
  EXPECT_EQ(r->scalar<double>(), 9.5);
}

TEST(NpyTest, RoundTripComplexAndInt) {
  Tensor c(DType::kC128, Shape{3});
  c.mutable_data<std::complex<double>>()[1] = {1, -1};
  auto rc = DecodeNpy(EncodeNpy(c));
  ASSERT_TRUE(rc.ok());
  EXPECT_TRUE(rc->BitwiseEquals(c));

  Tensor i = Tensor::FromVector(std::vector<int64_t>{10, -20, 30});
  auto ri = DecodeNpy(EncodeNpy(i));
  ASSERT_TRUE(ri.ok());
  EXPECT_TRUE(ri->BitwiseEquals(i));
}

TEST(NpyTest, FileRoundTrip) {
  TempDir dir;
  Tensor t(DType::kF32, Shape{16, 16});
  FillUniform(t, 3);
  const std::string path = dir.path() + "/a.npy";
  ASSERT_TRUE(SaveNpy(path, t).ok());
  auto r = LoadNpy(path);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->BitwiseEquals(t));
}

TEST(NpyTest, LoadMissingFileFails) {
  auto r = LoadNpy("/nonexistent/definitely/missing.npy");
  EXPECT_EQ(r.status().code(), Code::kNotFound);
}

TEST(NpyTest, RejectsBadMagic) {
  EXPECT_FALSE(DecodeNpy("XXNOPE....").ok());
}

TEST(NpyTest, RejectsTruncatedData) {
  Tensor t(DType::kF64, Shape{8});
  std::string enc = EncodeNpy(t);
  enc.resize(enc.size() - 4);
  EXPECT_FALSE(DecodeNpy(enc).ok());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// LoadNpy reads the data section straight into a pooled buffer: a file cut
// short anywhere must come back as an error, never a crash or a partial
// tensor.
TEST(NpyTest, LoadRejectsTruncatedDataSection) {
  TempDir dir;
  Tensor t(DType::kF64, Shape{64});
  FillUniform(t, 4);
  const std::string enc = EncodeNpy(t);
  const std::string path = dir.path() + "/short.npy";
  for (size_t cut : {size_t{1}, size_t{4}, static_cast<size_t>(t.bytes())}) {
    WriteBytes(path, enc.substr(0, enc.size() - cut));
    auto r = LoadNpy(path);
    ASSERT_FALSE(r.ok()) << "cut " << cut;
    EXPECT_NE(r.status().message().find("truncated data section"),
              std::string::npos)
        << r.status().ToString();
  }
  WriteBytes(path, enc);
  auto r = LoadNpy(path);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->BitwiseEquals(t));
}

TEST(NpyTest, LoadRejectsTruncatedHeader) {
  TempDir dir;
  const std::string enc = EncodeNpy(Tensor(DType::kF32, Shape{3, 3}));
  const size_t data_off = enc.size() - 9 * sizeof(float);
  const std::string path = dir.path() + "/cut.npy";
  // Inside the preamble (magic, version, length) and inside the dict.
  for (size_t len = 0; len < data_off; ++len) {
    WriteBytes(path, enc.substr(0, len));
    EXPECT_EQ(LoadNpy(path).status().code(), Code::kInvalidArgument)
        << "len " << len;
  }
}

TEST(NpyTest, RejectsNegativeDim) {
  std::string enc = EncodeNpy(Tensor(DType::kF32, Shape{3}));
  const size_t pos = enc.find("(3,)");
  ASSERT_NE(pos, std::string::npos);
  enc.replace(pos, 4, "(-3)");
  EXPECT_EQ(DecodeNpy(enc).status().code(), Code::kInvalidArgument);
}

TEST(NpyTest, RejectsMetaTensor) {
  // Only an invalid tensor lacks storage; there is nothing to write.
  EXPECT_FALSE(SaveNpy("/tmp/x.npy", Tensor()).ok());
}

TEST(NpyTest, ParsesV2Header) {
  // Build a v2.0 file by hand: 4-byte header length.
  Tensor t = Tensor::FromVector(std::vector<float>{1, 2});
  std::string v1 = EncodeNpy(t);
  const size_t hlen = static_cast<uint8_t>(v1[8]) |
                      (static_cast<size_t>(static_cast<uint8_t>(v1[9])) << 8);
  std::string v2;
  v2.append("\x93NUMPY", 6);
  v2.push_back('\x02');
  v2.push_back('\x00');
  for (int i = 0; i < 4; ++i) v2.push_back(static_cast<char>((hlen >> (8 * i)) & 0xFF));
  v2.append(v1.substr(10));
  auto r = DecodeNpy(v2);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->BitwiseEquals(t));
}

// ---- TileStore ------------------------------------------------------------------

TEST(TileStoreTest, SplitAndAssembleIdentity) {
  TempDir dir;
  Tensor m(DType::kF32, Shape{10, 14});
  FillUniform(m, 4);
  auto store = TileStore::Create(dir.path() + "/tiles", m, 4, 5);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->manifest().grid_rows(), 3);  // ceil(10/4)
  EXPECT_EQ(store->manifest().grid_cols(), 3);  // ceil(14/5)
  auto back = store->Assemble();
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->BitwiseEquals(m));
}

TEST(TileStoreTest, EdgeTilesAreClipped) {
  TempDir dir;
  Tensor m(DType::kF64, Shape{5, 5});
  FillUniform(m, 8);
  auto store = TileStore::Create(dir.path() + "/t", m, 4, 4);
  ASSERT_TRUE(store.ok());
  auto corner = store->LoadTile(1, 1);
  ASSERT_TRUE(corner.ok());
  EXPECT_EQ(corner->shape(), Shape({1, 1}));
  EXPECT_EQ((corner->at<double>(0, 0)), (m.at<double>(4, 4)));
}

TEST(TileStoreTest, OpenReadsManifest) {
  TempDir dir;
  Tensor m(DType::kF32, Shape{8, 8});
  FillUniform(m, 1);
  ASSERT_TRUE(TileStore::Create(dir.path() + "/t", m, 4, 4).ok());
  auto store = TileStore::Open(dir.path() + "/t");
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->manifest().rows, 8);
  EXPECT_EQ(store->manifest().tile_cols, 4);
  EXPECT_EQ(store->manifest().dtype, DType::kF32);
}

TEST(TileStoreTest, OutOfRangeTileRejected) {
  TempDir dir;
  Tensor m(DType::kF32, Shape{8, 8});
  auto store = TileStore::Create(dir.path() + "/t", m, 4, 4);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->LoadTile(2, 0).status().code(), Code::kOutOfRange);
  EXPECT_EQ(store->LoadTile(0, -1).status().code(), Code::kOutOfRange);
}

TEST(TileStoreTest, NonMatrixRejected) {
  TempDir dir;
  Tensor v(DType::kF32, Shape{8});
  EXPECT_FALSE(TileStore::Create(dir.path() + "/t", v, 4, 4).ok());
}

TEST(TileStoreTest, OpenMissingDirFails) {
  EXPECT_EQ(TileStore::Open("/nonexistent/dir").status().code(),
            Code::kNotFound);
}

// ---- Interleave split/merge (FFT tiles) -------------------------------------------

TEST(InterleaveTest, SplitMergeIdentity) {
  Tensor sig(DType::kC128, Shape{64});
  FillUniform(sig, 6, -1, 1);
  auto tiles = InterleaveSplit(sig, 8);
  ASSERT_EQ(tiles.size(), 8u);
  EXPECT_EQ(tiles[0].num_elements(), 8);
  auto merged = InterleaveMerge(tiles);
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged->BitwiseEquals(sig));
}

TEST(InterleaveTest, TileKHoldsStridedElements) {
  Tensor sig(DType::kC128, Shape{12});
  auto* d = sig.mutable_data<std::complex<double>>();
  for (int i = 0; i < 12; ++i) d[i] = {static_cast<double>(i), 0};
  auto tiles = InterleaveSplit(sig, 3);
  // tile 1 must hold elements 1, 4, 7, 10.
  auto t1 = tiles[1].data<std::complex<double>>();
  EXPECT_EQ(t1[0].real(), 1);
  EXPECT_EQ(t1[1].real(), 4);
  EXPECT_EQ(t1[2].real(), 7);
  EXPECT_EQ(t1[3].real(), 10);
}

TEST(InterleaveTest, MergeRejectsInconsistentTiles) {
  std::vector<Tensor> tiles;
  tiles.emplace_back(DType::kC128, Shape{4});
  tiles.emplace_back(DType::kC128, Shape{5});
  EXPECT_FALSE(InterleaveMerge(tiles).ok());
}

// ---- Checkpoint ---------------------------------------------------------------------

TEST(CheckpointTest, RoundTrip) {
  TempDir dir;
  std::map<std::string, Tensor> vars;
  vars["x"] = Tensor::FromVector(std::vector<double>{1, 2, 3});
  vars["step"] = Tensor::Scalar<int64_t>(500);
  Tensor m(DType::kF32, Shape{4, 4});
  FillUniform(m, 13);
  vars["w"] = m;
  const std::string path = dir.path() + "/ckpt";
  ASSERT_TRUE(SaveCheckpoint(path, vars).ok());
  auto r = LoadCheckpoint(path);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 3u);
  EXPECT_TRUE((*r)["x"].BitwiseEquals(vars["x"]));
  EXPECT_EQ((*r)["step"].scalar<int64_t>(), 500);
  EXPECT_TRUE((*r)["w"].BitwiseEquals(m));
}

TEST(CheckpointTest, OverwriteIsAtomicReplace) {
  TempDir dir;
  const std::string path = dir.path() + "/ckpt";
  std::map<std::string, Tensor> v1{{"a", Tensor::Scalar(1.0)}};
  std::map<std::string, Tensor> v2{{"a", Tensor::Scalar(2.0)}};
  ASSERT_TRUE(SaveCheckpoint(path, v1).ok());
  ASSERT_TRUE(SaveCheckpoint(path, v2).ok());
  auto r = LoadCheckpoint(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)["a"].scalar<double>(), 2.0);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(CheckpointTest, MissingFileFails) {
  EXPECT_EQ(LoadCheckpoint("/nonexistent/ckpt").status().code(),
            Code::kNotFound);
}

TEST(CheckpointTest, EmptySetRoundTrips) {
  TempDir dir;
  const std::string path = dir.path() + "/empty";
  ASSERT_TRUE(SaveCheckpoint(path, {}).ok());
  auto r = LoadCheckpoint(path);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(CheckpointTest, RejectsMetaTensors) {
  // An invalid tensor, the one tensor without storage, has no dtype to
  // write; saving it would leave a file LoadCheckpoint refuses whole.
  TempDir dir;
  std::map<std::string, Tensor> vars{{"ok", Tensor::Scalar(1.0)},
                                     {"m", Tensor()}};
  EXPECT_EQ(SaveCheckpoint(dir.path() + "/ckpt", vars).code(),
            Code::kInvalidArgument);
}

// ---- WorkList / Prefetcher --------------------------------------------------------

TEST(WorkListTest, EachItemHandedOutOnce) {
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  WorkList<int> list(items);
  std::mutex mu;
  std::set<int> seen;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (auto item = list.GetNext()) {
        std::lock_guard<std::mutex> lk(mu);
        EXPECT_TRUE(seen.insert(*item).second) << "duplicate " << *item;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(list.remaining(), 0u);
}

TEST(WorkListTest, ShuffleIsDeterministicPermutation) {
  std::vector<int> items(64);
  std::iota(items.begin(), items.end(), 0);
  WorkList<int> a(items, /*seed=*/9);
  WorkList<int> b(items, /*seed=*/9);
  WorkList<int> c(items, /*seed=*/10);
  std::vector<int> va, vb, vc;
  while (auto x = a.GetNext()) va.push_back(*x);
  while (auto x = b.GetNext()) vb.push_back(*x);
  while (auto x = c.GetNext()) vc.push_back(*x);
  EXPECT_EQ(va, vb);            // same seed, same order
  EXPECT_NE(va, vc);            // different seed, different order
  EXPECT_NE(va, items);         // actually shuffled
  std::sort(va.begin(), va.end());
  EXPECT_EQ(va, items);         // a permutation: nothing lost or duplicated
}

TEST(NpyFuzzTest, MangledHeadersNeverCrash) {
  Tensor t(DType::kF64, Shape{4, 4});
  FillUniform(t, 3);
  const std::string good = EncodeNpy(t);
  // Truncations at every length and single-byte corruptions across the
  // header region must all return cleanly (value or error).
  for (size_t len = 0; len <= good.size(); len += 7) {
    auto r = DecodeNpy(good.substr(0, len));
    (void)r;
  }
  for (size_t pos = 0; pos < std::min<size_t>(good.size(), 96); ++pos) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x5A);
    auto r = DecodeNpy(bad);
    (void)r;
  }
  SUCCEED();
}

TEST(PrefetcherTest, DeliversAllInOrder) {
  int next = 0;
  TensorPrefetcher pf(
      [&]() -> std::optional<Tensor> {
        if (next >= 10) return std::nullopt;
        return Tensor::Scalar(static_cast<double>(next++));
      },
      3);
  for (int i = 0; i < 10; ++i) {
    auto t = pf.Next();
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->scalar<double>(), i);
  }
  EXPECT_FALSE(pf.Next().has_value());
  EXPECT_FALSE(pf.Next().has_value());  // idempotent at end
}

TEST(PrefetcherTest, DestructorCancelsPendingProducer) {
  // Producer never ends; destroying the prefetcher must not hang.
  auto pf = std::make_unique<TensorPrefetcher>(
      []() -> std::optional<Tensor> { return Tensor::Scalar(1.0); }, 2);
  auto t = pf->Next();
  ASSERT_TRUE(t.has_value());
  pf.reset();  // must join cleanly
}

}  // namespace
}  // namespace tfhpc::io
