#include "data/real_data.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "data/synthetic_cifar.h"
#include "data/synthetic_mnist.h"

namespace superbnn::data {

namespace {

std::vector<unsigned char>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::invalid_argument("real_data: cannot open " + path);
    std::vector<unsigned char> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return bytes;
}

/** Big-endian uint32 at @p offset (bounds pre-checked by callers). */
std::uint32_t
beUint32(const std::vector<unsigned char> &bytes, std::size_t offset)
{
    return (static_cast<std::uint32_t>(bytes[offset]) << 24)
        | (static_cast<std::uint32_t>(bytes[offset + 1]) << 16)
        | (static_cast<std::uint32_t>(bytes[offset + 2]) << 8)
        | static_cast<std::uint32_t>(bytes[offset + 3]);
}

/** [0, 255] byte -> [-1, 1] float (synthetic generators' range). */
inline float
normalizePixel(unsigned char p)
{
    return static_cast<float>(p) / 127.5f - 1.0f;
}

/**
 * Parse one IDX file: validates the magic (0x00 0x00 0x08 = unsigned
 * byte payload, then the dimension count), reads the big-endian
 * extents, and checks the payload length to the byte.
 */
std::vector<unsigned char>
parseIdx(const std::string &path, std::size_t expected_dims,
         std::vector<std::uint32_t> &dims)
{
    const std::vector<unsigned char> bytes = readFile(path);
    if (bytes.size() < 4)
        throw std::invalid_argument("real_data: truncated IDX header in "
                                    + path);
    if (bytes[0] != 0 || bytes[1] != 0)
        throw std::invalid_argument("real_data: bad IDX magic in "
                                    + path);
    if (bytes[2] != 0x08)
        throw std::invalid_argument(
            "real_data: unsupported IDX element type in " + path
            + " (only unsigned byte / 0x08 is supported)");
    const std::size_t ndims = bytes[3];
    if (ndims != expected_dims)
        throw std::invalid_argument(
            "real_data: unexpected IDX rank in " + path + " (got "
            + std::to_string(ndims) + ", want "
            + std::to_string(expected_dims) + ")");
    if (bytes.size() < 4 + 4 * ndims)
        throw std::invalid_argument("real_data: truncated IDX header in "
                                    + path);
    const std::size_t header = 4 + 4 * ndims;
    const std::size_t available = bytes.size() - header;
    dims.clear();
    std::size_t payload = 1;
    for (std::size_t d = 0; d < ndims; ++d) {
        dims.push_back(beUint32(bytes, 4 + 4 * d));
        // Checked before multiplying: the running product never
        // exceeds the file's length, so it cannot wrap size_t.
        if (dims.back() != 0 && payload > available / dims.back())
            throw std::invalid_argument(
                "real_data: IDX extents in " + path + " exceed its "
                + std::to_string(available) + "-byte payload");
        payload *= dims.back();
    }
    if (available != payload)
        throw std::invalid_argument(
            "real_data: IDX payload size mismatch in " + path + " (have "
            + std::to_string(available) + " bytes, want "
            + std::to_string(payload) + ")");
    return std::vector<unsigned char>(bytes.begin()
                                          + static_cast<std::ptrdiff_t>(
                                              header),
                                      bytes.end());
}

void
checkChecksum(const std::string &path, std::uint64_t expected)
{
    if (expected == 0)
        return;
    const std::uint64_t actual = fileChecksum(path);
    if (actual != expected) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      " (have %016llx, want %016llx)",
                      static_cast<unsigned long long>(actual),
                      static_cast<unsigned long long>(expected));
        throw std::invalid_argument("real_data: checksum mismatch for "
                                    + path + buf);
    }
}

} // namespace

std::uint64_t
fileChecksum(const std::string &path)
{
    const std::vector<unsigned char> bytes = readFile(path);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char b : bytes) {
        hash ^= b;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

bool
fileReadable(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return static_cast<bool>(in);
}

Dataset
loadIdxDataset(const std::string &images_path,
               const std::string &labels_path,
               const IdxLoadOptions &options)
{
    checkChecksum(images_path, options.imagesChecksum);
    checkChecksum(labels_path, options.labelsChecksum);

    std::vector<std::uint32_t> image_dims;
    const std::vector<unsigned char> pixels =
        parseIdx(images_path, 3, image_dims);
    std::vector<std::uint32_t> label_dims;
    const std::vector<unsigned char> labels =
        parseIdx(labels_path, 1, label_dims);

    if (image_dims[0] != label_dims[0])
        throw std::invalid_argument(
            "real_data: image/label count mismatch ("
            + std::to_string(image_dims[0]) + " images, "
            + std::to_string(label_dims[0]) + " labels)");

    const std::size_t rows = image_dims[1];
    const std::size_t cols = image_dims[2];
    const std::size_t pixels_per = rows * cols;
    if (pixels_per == 0)
        throw std::invalid_argument(
            "real_data: zero-sized images in " + images_path);
    std::size_t count = image_dims[0];
    if (options.maxItems != 0)
        count = std::min(count, options.maxItems);

    Dataset ds;
    ds.samples = options.flat
        ? Tensor(Shape{count, pixels_per})
        : Tensor(Shape{count, 1, rows, cols});
    ds.labels.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        const unsigned char label = labels[i];
        if (label >= options.numClasses)
            throw std::invalid_argument(
                "real_data: label " + std::to_string(label)
                + " out of range [0, "
                + std::to_string(options.numClasses) + ") in "
                + labels_path);
        ds.labels[i] = label;
        for (std::size_t p = 0; p < pixels_per; ++p)
            ds.samples[i * pixels_per + p] =
                normalizePixel(pixels[i * pixels_per + p]);
    }
    return ds;
}

Dataset
loadCifar10Binary(const std::vector<std::string> &batch_paths,
                  std::size_t max_items, std::size_t num_classes)
{
    constexpr std::size_t kPixels = 3 * 32 * 32;
    constexpr std::size_t kRecord = 1 + kPixels;

    // First pass: validate record alignment and count the total.
    std::size_t total = 0;
    for (const std::string &path : batch_paths) {
        const std::vector<unsigned char> bytes = readFile(path);
        if (bytes.empty() || bytes.size() % kRecord != 0)
            throw std::invalid_argument(
                "real_data: " + path + " is not a whole number of "
                + std::to_string(kRecord) + "-byte CIFAR-10 records");
        total += bytes.size() / kRecord;
    }
    if (max_items != 0)
        total = std::min(total, max_items);

    Dataset ds;
    ds.samples = Tensor(Shape{total, 3, 32, 32});
    ds.labels.resize(total);
    std::size_t loaded = 0;
    for (const std::string &path : batch_paths) {
        if (loaded == total)
            break;
        const std::vector<unsigned char> bytes = readFile(path);
        const std::size_t records = bytes.size() / kRecord;
        for (std::size_t r = 0; r < records && loaded < total; ++r) {
            const unsigned char *rec = bytes.data() + r * kRecord;
            if (rec[0] >= num_classes)
                throw std::invalid_argument(
                    "real_data: label " + std::to_string(rec[0])
                    + " out of range [0, " + std::to_string(num_classes)
                    + ") in " + path);
            ds.labels[loaded] = rec[0];
            // Records are already channel-major 3x32x32, the layout
            // the Dataset tensor uses.
            for (std::size_t p = 0; p < kPixels; ++p)
                ds.samples[loaded * kPixels + p] =
                    normalizePixel(rec[1 + p]);
            ++loaded;
        }
    }
    return ds;
}

LoadedData
loadMnistOrSynthetic(const std::string &dir, std::size_t max_train,
                     std::size_t max_test)
{
    const std::string train_images = dir + "/train-images-idx3-ubyte";
    const std::string train_labels = dir + "/train-labels-idx1-ubyte";
    const std::string test_images = dir + "/t10k-images-idx3-ubyte";
    const std::string test_labels = dir + "/t10k-labels-idx1-ubyte";

    LoadedData out;
    if (fileReadable(train_images) && fileReadable(train_labels)
        && fileReadable(test_images) && fileReadable(test_labels)) {
        IdxLoadOptions opts;
        opts.maxItems = max_train;
        out.train = loadIdxDataset(train_images, train_labels, opts);
        opts.maxItems = max_test;
        out.test = loadIdxDataset(test_images, test_labels, opts);
        out.real = true;
        out.notice = "real MNIST loaded from " + dir;
        return out;
    }
    SyntheticMnistOptions opts;
    if (max_train != 0)
        opts.trainSize = max_train;
    if (max_test != 0)
        opts.testSize = max_test;
    SyntheticMnist synth = makeSyntheticMnist(opts);
    out.train = std::move(synth.train);
    out.test = std::move(synth.test);
    out.real = false;
    out.notice = "MNIST IDX files not found under " + dir
        + "; using the deterministic synthetic set";
    return out;
}

LoadedData
loadCifarOrSynthetic(const std::string &dir, std::size_t max_train,
                     std::size_t max_test)
{
    std::vector<std::string> train_batches;
    for (int b = 1; b <= 5; ++b)
        train_batches.push_back(dir + "/data_batch_" + std::to_string(b)
                                + ".bin");
    const std::string test_batch = dir + "/test_batch.bin";

    bool present = fileReadable(test_batch);
    for (const std::string &path : train_batches)
        present = present && fileReadable(path);

    LoadedData out;
    if (present) {
        out.train = loadCifar10Binary(train_batches, max_train);
        out.test = loadCifar10Binary({test_batch}, max_test);
        out.real = true;
        out.notice = "real CIFAR-10 loaded from " + dir;
        return out;
    }
    SyntheticCifarOptions opts;
    if (max_train != 0)
        opts.trainSize = max_train;
    if (max_test != 0)
        opts.testSize = max_test;
    SyntheticCifar synth = makeSyntheticCifar(opts);
    out.train = std::move(synth.train);
    out.test = std::move(synth.test);
    out.real = false;
    out.notice = "CIFAR-10 binary batches not found under " + dir
        + "; using the deterministic synthetic set";
    return out;
}

} // namespace superbnn::data
