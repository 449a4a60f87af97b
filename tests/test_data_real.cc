/**
 * @file
 * Tests for the real MNIST (IDX) / CIFAR-10 (binary) loaders against
 * tiny checked-in fixture files, plus the synthetic-fallback path and
 * the skip-with-notice path when the full datasets are absent.
 *
 * Fixture layout (tests/fixtures, generated once and checked in):
 * tiny-images-idx3-ubyte holds four 2x3 ubyte images whose pixel (r, c)
 * of image i is row-major {10 i + 1, 2, 3, 4, 5, 255};
 * tiny-labels-idx1-ubyte holds labels {0, 1, 2, 3}; tiny-cifar.bin
 * holds two 3073-byte records with labels {3, 7} and pixel bytes
 * (7 p) mod 256. Each bad-/truncated-/overflow- variant corrupts
 * exactly one aspect.
 */

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "data/real_data.h"

using namespace superbnn;
using namespace superbnn::data;

namespace {

std::string
fixture(const std::string &name)
{
    return std::string(SUPERBNN_FIXTURE_DIR) + "/" + name;
}

const std::string kTinyImages = fixture("tiny-images-idx3-ubyte");
const std::string kTinyLabels = fixture("tiny-labels-idx1-ubyte");

/** p / 127.5 - 1, the loaders' pixel normalization. */
float
norm(int byte)
{
    return static_cast<float>(byte) / 127.5f - 1.0f;
}

} // namespace

TEST(FileChecksumTest, MatchesKnownFnv1a)
{
    EXPECT_EQ(fileChecksum(kTinyImages), 0xfc2c88efeafbf643ULL);
    EXPECT_EQ(fileChecksum(kTinyLabels), 0xd1c90eb67da4795eULL);
    EXPECT_EQ(fileChecksum(fixture("tiny-cifar.bin")),
              0x75ac555f5460682fULL);
}

TEST(FileChecksumTest, MissingFileThrows)
{
    EXPECT_THROW(fileChecksum(fixture("no-such-file")),
                 std::invalid_argument);
    EXPECT_FALSE(fileReadable(fixture("no-such-file")));
    EXPECT_TRUE(fileReadable(kTinyImages));
}

TEST(IdxLoaderTest, TinyFixtureLoads)
{
    const Dataset ds = loadIdxDataset(kTinyImages, kTinyLabels);
    ASSERT_EQ(ds.size(), 4u);
    ASSERT_EQ(ds.samples.rank(), 2u);
    EXPECT_EQ(ds.samples.dim(1), 6u); // 2x3 flattened
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(ds.labels[i], i);
    // Image i's pixels are {10i+1, 2, 3, 4, 5, 255}, normalized.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_FLOAT_EQ(ds.samples[i * 6 + 0],
                        norm(static_cast<int>(10 * i + 1)));
        EXPECT_FLOAT_EQ(ds.samples[i * 6 + 5], norm(255));
    }
}

TEST(IdxLoaderTest, MaxItemsCaps)
{
    IdxLoadOptions opts;
    opts.maxItems = 2;
    const Dataset ds = loadIdxDataset(kTinyImages, kTinyLabels, opts);
    EXPECT_EQ(ds.size(), 2u);
    EXPECT_EQ(ds.labels[1], 1u);
}

TEST(IdxLoaderTest, NonFlatShape)
{
    IdxLoadOptions opts;
    opts.flat = false;
    const Dataset ds = loadIdxDataset(kTinyImages, kTinyLabels, opts);
    ASSERT_EQ(ds.samples.rank(), 4u);
    EXPECT_EQ(ds.samples.dim(1), 1u);
    EXPECT_EQ(ds.samples.dim(2), 2u);
    EXPECT_EQ(ds.samples.dim(3), 3u);
}

TEST(IdxLoaderTest, BadMagicThrows)
{
    EXPECT_THROW(
        loadIdxDataset(fixture("bad-magic-idx3-ubyte"), kTinyLabels),
        std::invalid_argument);
}

TEST(IdxLoaderTest, BadElementTypeThrows)
{
    EXPECT_THROW(
        loadIdxDataset(fixture("bad-type-idx3-ubyte"), kTinyLabels),
        std::invalid_argument);
}

TEST(IdxLoaderTest, TruncatedHeaderThrows)
{
    EXPECT_THROW(loadIdxDataset(fixture("truncated-header-idx3-ubyte"),
                                kTinyLabels),
                 std::invalid_argument);
}

TEST(IdxLoaderTest, TruncatedPayloadThrows)
{
    EXPECT_THROW(loadIdxDataset(fixture("truncated-payload-idx3-ubyte"),
                                kTinyLabels),
                 std::invalid_argument);
}

TEST(IdxLoaderTest, OverflowingExtentsThrow)
{
    // Header-only file claiming 4 x 2^31 x 2^31 images: the extent
    // product wraps size_t to 0, which matched the empty payload and
    // sent a 2^62-pixel image into the loader.
    EXPECT_THROW(loadIdxDataset(fixture("overflow-extent-idx3-ubyte"),
                                kTinyLabels),
                 std::invalid_argument);
}

TEST(IdxLoaderTest, MissingFileThrows)
{
    EXPECT_THROW(loadIdxDataset(fixture("no-such-file"), kTinyLabels),
                 std::invalid_argument);
}

TEST(IdxLoaderTest, CountMismatchThrows)
{
    EXPECT_THROW(
        loadIdxDataset(kTinyImages, fixture("short-labels-idx1-ubyte")),
        std::invalid_argument);
}

TEST(IdxLoaderTest, LabelOutOfRangeThrows)
{
    // bad-label fixture carries label 200 with the default 10 classes.
    EXPECT_THROW(
        loadIdxDataset(kTinyImages, fixture("bad-label-idx1-ubyte")),
        std::invalid_argument);
}

TEST(IdxLoaderTest, LabelRangeRespectsNumClasses)
{
    // The good fixture's labels are {0,1,2,3}: fine at 10 classes,
    // out of range when the caller narrows to 3.
    IdxLoadOptions opts;
    opts.numClasses = 3;
    EXPECT_THROW(loadIdxDataset(kTinyImages, kTinyLabels, opts),
                 std::invalid_argument);
}

TEST(IdxLoaderTest, ChecksumValidationPasses)
{
    IdxLoadOptions opts;
    opts.imagesChecksum = 0xfc2c88efeafbf643ULL;
    opts.labelsChecksum = 0xd1c90eb67da4795eULL;
    const Dataset ds = loadIdxDataset(kTinyImages, kTinyLabels, opts);
    EXPECT_EQ(ds.size(), 4u);
}

TEST(IdxLoaderTest, ChecksumMismatchThrows)
{
    IdxLoadOptions opts;
    opts.imagesChecksum = 0xdeadbeefULL;
    EXPECT_THROW(loadIdxDataset(kTinyImages, kTinyLabels, opts),
                 std::invalid_argument);
}

TEST(CifarLoaderTest, TinyFixtureLoads)
{
    const Dataset ds = loadCifar10Binary({fixture("tiny-cifar.bin")});
    ASSERT_EQ(ds.size(), 2u);
    ASSERT_EQ(ds.samples.rank(), 4u);
    EXPECT_EQ(ds.samples.dim(1), 3u);
    EXPECT_EQ(ds.samples.dim(2), 32u);
    EXPECT_EQ(ds.samples.dim(3), 32u);
    EXPECT_EQ(ds.labels[0], 3u);
    EXPECT_EQ(ds.labels[1], 7u);
    // Pixel p of each record is (7 p) mod 256, channel-major.
    EXPECT_FLOAT_EQ(ds.samples[0], norm(0));
    EXPECT_FLOAT_EQ(ds.samples[1], norm(7));
    EXPECT_FLOAT_EQ(ds.samples[10], norm((7 * 10) % 256));
}

TEST(CifarLoaderTest, MaxItemsCaps)
{
    const Dataset ds =
        loadCifar10Binary({fixture("tiny-cifar.bin")}, 1);
    EXPECT_EQ(ds.size(), 1u);
    EXPECT_EQ(ds.labels[0], 3u);
}

TEST(CifarLoaderTest, MultipleBatchesConcatenate)
{
    const Dataset ds = loadCifar10Binary(
        {fixture("tiny-cifar.bin"), fixture("tiny-cifar.bin")});
    ASSERT_EQ(ds.size(), 4u);
    EXPECT_EQ(ds.labels[2], 3u);
    EXPECT_EQ(ds.labels[3], 7u);
}

TEST(CifarLoaderTest, BadLabelThrows)
{
    EXPECT_THROW(loadCifar10Binary({fixture("bad-label-cifar.bin")}),
                 std::invalid_argument);
}

TEST(CifarLoaderTest, TruncatedThrows)
{
    EXPECT_THROW(loadCifar10Binary({fixture("truncated-cifar.bin")}),
                 std::invalid_argument);
}

TEST(CifarLoaderTest, MissingFileThrows)
{
    EXPECT_THROW(loadCifar10Binary({fixture("no-such-file")}),
                 std::invalid_argument);
}

TEST(FallbackTest, MnistFallsBackToSynthetic)
{
    const LoadedData data =
        loadMnistOrSynthetic(fixture("no-such-dir"), 50, 20);
    EXPECT_FALSE(data.real);
    EXPECT_NE(data.notice.find("synthetic"), std::string::npos);
    EXPECT_EQ(data.train.size(), 50u);
    EXPECT_EQ(data.test.size(), 20u);
    EXPECT_EQ(data.train.samples.dim(1), 784u);
}

TEST(FallbackTest, CifarFallsBackToSynthetic)
{
    const LoadedData data =
        loadCifarOrSynthetic(fixture("no-such-dir"), 30, 10);
    EXPECT_FALSE(data.real);
    EXPECT_NE(data.notice.find("synthetic"), std::string::npos);
    EXPECT_EQ(data.train.size(), 30u);
    EXPECT_EQ(data.test.size(), 10u);
    ASSERT_EQ(data.train.samples.rank(), 4u);
    EXPECT_EQ(data.train.samples.dim(1), 3u);
}

TEST(FallbackTest, RealMnistWhenPresentOrSkip)
{
    // Opt-in full-dataset leg: point SUPERBNN_MNIST_DIR at a directory
    // holding the four IDX files to exercise the real path end to end.
    const char *dir = std::getenv("SUPERBNN_MNIST_DIR");
    if (dir == nullptr || !fileReadable(std::string(dir)
                                        + "/train-images-idx3-ubyte"))
        GTEST_SKIP()
            << "full MNIST not present (set SUPERBNN_MNIST_DIR); "
               "fixture-level coverage still ran";
    const LoadedData data = loadMnistOrSynthetic(dir, 100, 100);
    EXPECT_TRUE(data.real);
    EXPECT_EQ(data.train.size(), 100u);
    EXPECT_EQ(data.train.samples.dim(1), 784u);
}

TEST(FallbackTest, RealCifarWhenPresentOrSkip)
{
    const char *dir = std::getenv("SUPERBNN_CIFAR_DIR");
    if (dir == nullptr
        || !fileReadable(std::string(dir) + "/test_batch.bin"))
        GTEST_SKIP()
            << "full CIFAR-10 not present (set SUPERBNN_CIFAR_DIR); "
               "fixture-level coverage still ran";
    const LoadedData data = loadCifarOrSynthetic(dir, 100, 100);
    EXPECT_TRUE(data.real);
    EXPECT_EQ(data.train.size(), 100u);
}
