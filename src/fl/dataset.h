// Synthetic image classification datasets standing in for the paper's
// CIFAR-10 / FMNIST / SVHN / EuroSat (see DESIGN.md §2 for the substitution
// argument). Each dataset profile draws per-class template images and
// produces samples as template + Gaussian noise (+ optional label noise),
// which yields exactly the monotone-concave accuracy-vs-data behaviour of
// Eq. (5) that the mechanism consumes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fl/tensor.h"

namespace tradefl::fl {

enum class DatasetKind { kCifar10Like, kFmnistLike, kSvhnLike, kEurosatLike };

const char* dataset_name(DatasetKind kind);
DatasetKind dataset_kind_from_string(const std::string& text);

/// Generation profile. The four built-in kinds differ in image geometry and
/// hardness (class separation / noise / label noise), mirroring the relative
/// difficulty of the real datasets.
struct DatasetSpec {
  DatasetKind kind = DatasetKind::kFmnistLike;
  std::size_t classes = 10;
  std::size_t channels = 1;
  std::size_t height = 12;
  std::size_t width = 12;
  double class_separation = 1.0;  // template magnitude vs noise
  double noise = 1.0;             // per-pixel Gaussian sigma
  double label_noise = 0.0;       // probability of a flipped label

  /// Seeds the per-class templates — the "concept" of the task. Datasets
  /// that should be mutually compatible (each organization's local shard and
  /// the test set) MUST share this seed.
  std::uint64_t concept_seed = 1;

  /// Seeds the sample noise/label draws; varies across shards.
  std::uint64_t sample_seed = 1;

  /// Optional per-class sampling weights (non-IID shards). Empty = uniform.
  /// The paper assumes i.i.d. organizational data (footnote 4); skewed
  /// weights let ablations probe that assumption.
  std::vector<double> class_weights;

  /// Built-in profiles; `size_scale` in (0, 1] shrinks images for fast tests.
  static DatasetSpec builtin(DatasetKind kind, std::uint64_t concept_seed,
                             double size_scale = 1.0);

  [[nodiscard]] DatasetSpec with_sample_seed(std::uint64_t seed) const {
    DatasetSpec copy = *this;
    copy.sample_seed = seed;
    return copy;
  }

  [[nodiscard]] DatasetSpec with_class_weights(std::vector<double> weights) const {
    DatasetSpec copy = *this;
    copy.class_weights = std::move(weights);
    return copy;
  }
};

/// An in-memory labeled dataset with contiguous (n, c, h, w) images.
///
/// A dataset may store the images of only some of its samples: a FedClient's
/// shard needs only the d_i |S_i| images it contributes. Such a dataset still
/// has every label, and each stored image is bit-identical to the one a
/// dataset storing everything holds, because generation walks the same
/// random stream and skips the unstored pixels' draws (Rng::skip_normals).
/// Reading an unstored image throws std::out_of_range.
class Dataset {
 public:
  /// Stores every sample's image.
  Dataset(DatasetSpec spec, std::size_t samples);

  /// Stores only the images of the samples listed in `stored` (indices into
  /// [0, samples); order and repeats do not matter). An index out of that
  /// range throws std::out_of_range.
  Dataset(DatasetSpec spec, std::size_t samples, const std::vector<std::size_t>& stored);

  [[nodiscard]] const DatasetSpec& spec() const { return spec_; }
  /// Logical sample count, stored images or not.
  [[nodiscard]] std::size_t size() const { return labels_.size(); }

  /// Assembles a batch tensor from sample indices.
  [[nodiscard]] Tensor batch(const std::vector<std::size_t>& indices) const;
  [[nodiscard]] std::vector<std::size_t> batch_labels(
      const std::vector<std::size_t>& indices) const;

  /// Pointer-span variant of batch(): `count` indices starting at `indices`.
  /// Lets training loops slice a shuffled epoch order without materializing a
  /// per-batch index vector.
  [[nodiscard]] Tensor batch_span(const std::size_t* indices, std::size_t count) const;

  /// One contiguous memcpy: samples [start, start + count) in storage order —
  /// the evaluation fast path (no index vector, no per-sample copies). Every
  /// sample in the range must be stored.
  [[nodiscard]] Tensor batch_range(std::size_t start, std::size_t count) const;

  /// Fills `out` (resized to `count`) with the labels of an index span;
  /// reuses the caller's buffer across batches.
  void batch_labels_into(const std::size_t* indices, std::size_t count,
                         std::vector<std::size_t>& out) const;

  [[nodiscard]] std::size_t label(std::size_t index) const { return labels_.at(index); }

  /// All labels in storage order (pairs with batch_range()).
  [[nodiscard]] const std::vector<std::size_t>& labels() const { return labels_; }

  /// Per-class sample counts (distribution sanity checks).
  [[nodiscard]] std::vector<std::size_t> class_histogram() const;

 private:
  static constexpr std::size_t kNotStored = static_cast<std::size_t>(-1);

  /// First element of sample `index`'s image; throws when it is not stored.
  [[nodiscard]] const float* image(std::size_t index) const;

  DatasetSpec spec_;
  std::vector<float> images_;  // stored samples * c * h * w, in index order
  std::vector<std::size_t> labels_;
  /// Sample index -> image slot in images_, kNotStored when it was skipped.
  std::vector<std::size_t> slots_;
  std::size_t image_elements_ = 0;
};

/// Draws Dirichlet(alpha, ..., alpha) class weights — the standard non-IID
/// label-skew generator for FL experiments. Small alpha => heavy skew.
std::vector<double> dirichlet_class_weights(std::size_t classes, double alpha, Rng& rng);

/// Splits a client's local indices: the first `fraction` of a seeded
/// permutation of [0, samples) — how organization i selects its
/// d_i · |S_i| training subset (Sec. III-B phase 2). A pure function of its
/// arguments, so a shard can be built storing exactly this subset before
/// training derives it again.
std::vector<std::size_t> contributed_indices(std::size_t samples, double fraction,
                                             std::uint64_t seed);

}  // namespace tradefl::fl
