#include "fl/dataset.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/string_util.h"
#include "obs/obs.h"

namespace tradefl::fl {

const char* dataset_name(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kCifar10Like: return "CIFAR10-like";
    case DatasetKind::kFmnistLike: return "FMNIST-like";
    case DatasetKind::kSvhnLike: return "SVHN-like";
    case DatasetKind::kEurosatLike: return "EuroSat-like";
  }
  return "?";
}

DatasetKind dataset_kind_from_string(const std::string& text) {
  const std::string lowered = to_lower(text);
  if (lowered == "cifar10" || lowered == "cifar") return DatasetKind::kCifar10Like;
  if (lowered == "fmnist" || lowered == "fashion") return DatasetKind::kFmnistLike;
  if (lowered == "svhn") return DatasetKind::kSvhnLike;
  if (lowered == "eurosat") return DatasetKind::kEurosatLike;
  throw std::invalid_argument("unknown dataset kind: " + text);
}

DatasetSpec DatasetSpec::builtin(DatasetKind kind, std::uint64_t concept_seed,
                                 double size_scale) {
  if (size_scale <= 0.0 || size_scale > 1.0) {
    throw std::invalid_argument("dataset: size_scale must be in (0, 1]");
  }
  DatasetSpec spec;
  spec.kind = kind;
  spec.concept_seed = concept_seed;
  spec.sample_seed = concept_seed;
  auto scaled = [size_scale](std::size_t extent) {
    return std::max<std::size_t>(4, static_cast<std::size_t>(
                                        std::lround(size_scale * static_cast<double>(extent))));
  };
  switch (kind) {
    case DatasetKind::kCifar10Like:
      spec.channels = 3;
      spec.height = spec.width = scaled(12);
      spec.class_separation = 0.9;
      spec.noise = 2.6;       // hard: natural-image-like confusability
      spec.label_noise = 0.02;
      break;
    case DatasetKind::kFmnistLike:
      spec.channels = 1;
      spec.height = spec.width = scaled(12);
      spec.class_separation = 1.2;
      spec.noise = 2.4;       // easier grayscale task
      spec.label_noise = 0.01;
      break;
    case DatasetKind::kSvhnLike:
      spec.channels = 3;
      spec.height = spec.width = scaled(12);
      spec.class_separation = 0.8;
      spec.noise = 3.0;       // cluttered digits: hardest profile
      spec.label_noise = 0.04;
      break;
    case DatasetKind::kEurosatLike:
      spec.channels = 3;
      spec.height = spec.width = scaled(12);
      spec.class_separation = 1.4;
      spec.noise = 2.0;       // satellite textures: well separated
      spec.label_noise = 0.01;
      break;
  }
  return spec;
}

namespace {

std::vector<std::size_t> all_indices(std::size_t samples) {
  std::vector<std::size_t> indices(samples);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  return indices;
}

}  // namespace

Dataset::Dataset(DatasetSpec spec, std::size_t samples)
    : Dataset(std::move(spec), samples, all_indices(samples)) {}

Dataset::Dataset(DatasetSpec spec, std::size_t samples, const std::vector<std::size_t>& stored)
    : spec_(std::move(spec)), slots_(samples, kNotStored) {
  if (samples == 0) throw std::invalid_argument("dataset: need >= 1 sample");
  if (spec_.classes < 2) throw std::invalid_argument("dataset: need >= 2 classes");
  for (std::size_t index : stored) {
    if (index >= samples) throw std::out_of_range("dataset: stored index out of range");
    slots_[index] = 0;
  }
  // Slots follow index order, so a run of stored indices is one run of slots.
  std::size_t stored_count = 0;
  for (std::size_t& slot : slots_) {
    if (slot != kNotStored) slot = stored_count++;
  }
  image_elements_ = spec_.channels * spec_.height * spec_.width;

  Rng rng(spec_.sample_seed ^ 0xA5A5A5A5DEADBEEFULL);
  // Per-class templates: smooth low-frequency patterns so that nearby pixels
  // correlate (closer to natural images than white noise) scaled by the
  // class-separation knob.
  std::vector<std::vector<float>> templates(spec_.classes,
                                            std::vector<float>(image_elements_));
  for (std::size_t cls = 0; cls < spec_.classes; ++cls) {
    Rng class_rng(spec_.concept_seed * 1315423911ULL + cls + 1);
    const double phase_x = class_rng.uniform(0.0, 2.0 * M_PI);
    const double phase_y = class_rng.uniform(0.0, 2.0 * M_PI);
    const double freq_x = class_rng.uniform(0.5, 2.5);
    const double freq_y = class_rng.uniform(0.5, 2.5);
    std::size_t flat = 0;
    for (std::size_t c = 0; c < spec_.channels; ++c) {
      const double channel_shift = class_rng.uniform(-0.5, 0.5);
      for (std::size_t y = 0; y < spec_.height; ++y) {
        for (std::size_t x = 0; x < spec_.width; ++x, ++flat) {
          const double u = static_cast<double>(x) / static_cast<double>(spec_.width);
          const double v = static_cast<double>(y) / static_cast<double>(spec_.height);
          const double pattern = std::sin(2.0 * M_PI * freq_x * u + phase_x) *
                                 std::cos(2.0 * M_PI * freq_y * v + phase_y);
          templates[cls][flat] =
              static_cast<float>(spec_.class_separation * (pattern + channel_shift));
        }
      }
    }
  }

  // Normalize pixels to roughly unit variance (the standard dataset
  // normalization transform); the template RMS is separation/sqrt(2) per the
  // sin*cos pattern, independent of the noise level, so SNR is unchanged.
  const float normalizer = static_cast<float>(
      1.0 / std::sqrt(spec_.noise * spec_.noise +
                      0.5 * spec_.class_separation * spec_.class_separation));

  // Class sampler: uniform, or weighted when the spec carries non-IID
  // class weights (cumulative-sum inversion).
  std::vector<double> cumulative;
  if (!spec_.class_weights.empty()) {
    if (spec_.class_weights.size() != spec_.classes) {
      throw std::invalid_argument("dataset: class_weights size mismatch");
    }
    double total = 0.0;
    for (double w : spec_.class_weights) {
      if (w < 0.0) throw std::invalid_argument("dataset: negative class weight");
      total += w;
    }
    if (total <= 0.0) throw std::invalid_argument("dataset: class weights sum to zero");
    double run = 0.0;
    for (double w : spec_.class_weights) {
      run += w / total;
      cumulative.push_back(run);
    }
    cumulative.back() = 1.0;
  }
  auto draw_class = [&]() -> std::size_t {
    if (cumulative.empty()) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(spec_.classes) - 1));
    }
    const double u = rng.uniform01();
    return static_cast<std::size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) - cumulative.begin());
  };

  // Every sample draws its class and label, so labels stay complete; an
  // unstored image advances the stream past its pixel draws instead.
  images_.resize(stored_count * image_elements_);
  labels_.resize(samples);
  for (std::size_t n = 0; n < samples; ++n) {
    const std::size_t cls = draw_class();
    std::size_t label = cls;
    if (spec_.label_noise > 0.0 && rng.bernoulli(spec_.label_noise)) {
      label = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(spec_.classes) - 1));
    }
    labels_[n] = label;
    if (slots_[n] == kNotStored) {
      rng.skip_normals(image_elements_);
      continue;
    }
    float* image = images_.data() + slots_[n] * image_elements_;
    for (std::size_t i = 0; i < image_elements_; ++i) {
      image[i] = (templates[cls][i] + static_cast<float>(rng.normal(0.0, spec_.noise))) *
                 normalizer;
    }
  }
  TFL_COUNTER_ADD("fl.dataset.stored", stored_count);
  TFL_COUNTER_ADD("fl.dataset.skipped", samples - stored_count);
}

const float* Dataset::image(std::size_t index) const {
  if (index >= size()) throw std::out_of_range("dataset: sample index out of range");
  if (slots_[index] == kNotStored) {
    throw std::out_of_range("dataset: image of sample " + std::to_string(index) +
                            " is not stored");
  }
  return images_.data() + slots_[index] * image_elements_;
}

Tensor Dataset::batch(const std::vector<std::size_t>& indices) const {
  return batch_span(indices.data(), indices.size());
}

Tensor Dataset::batch_span(const std::size_t* indices, std::size_t count) const {
  if (count == 0) throw std::invalid_argument("dataset: empty batch");
  Tensor out({count, spec_.channels, spec_.height, spec_.width});
  for (std::size_t b = 0; b < count; ++b) {
    const float* src = image(indices[b]);
    std::copy(src, src + image_elements_, out.data() + b * image_elements_);
  }
  return out;
}

Tensor Dataset::batch_range(std::size_t start, std::size_t count) const {
  if (count == 0) throw std::invalid_argument("dataset: empty batch");
  if (start + count > size()) throw std::out_of_range("dataset: batch range out of range");
  // Slots rise with the index, so the range is stored in full exactly when
  // its last image sits count - 1 slots after its first.
  const float* first = image(start);
  if (image(start + count - 1) != first + (count - 1) * image_elements_) {
    throw std::out_of_range("dataset: batch range includes unstored images");
  }
  Tensor out({count, spec_.channels, spec_.height, spec_.width});
  std::copy(first, first + count * image_elements_, out.data());
  return out;
}

void Dataset::batch_labels_into(const std::size_t* indices, std::size_t count,
                                std::vector<std::size_t>& out) const {
  out.resize(count);
  for (std::size_t b = 0; b < count; ++b) {
    const std::size_t index = indices[b];
    if (index >= size()) throw std::out_of_range("dataset: label index out of range");
    out[b] = labels_[index];
  }
}

std::vector<std::size_t> Dataset::batch_labels(const std::vector<std::size_t>& indices) const {
  std::vector<std::size_t> out;
  out.reserve(indices.size());
  for (std::size_t index : indices) out.push_back(labels_.at(index));
  return out;
}

std::vector<std::size_t> Dataset::class_histogram() const {
  std::vector<std::size_t> histogram(spec_.classes, 0);
  for (std::size_t label : labels_) ++histogram[label];
  return histogram;
}

std::vector<double> dirichlet_class_weights(std::size_t classes, double alpha, Rng& rng) {
  if (classes == 0) throw std::invalid_argument("dirichlet: need >= 1 class");
  if (alpha <= 0.0) throw std::invalid_argument("dirichlet: alpha must be > 0");
  // Gamma(alpha, 1) draws normalized; Marsaglia-Tsang for alpha >= 1 and the
  // boost trick Gamma(a) = Gamma(a+1) * U^(1/a) for alpha < 1.
  auto gamma_draw = [&rng](double shape) {
    double boost = 1.0;
    double a = shape;
    if (a < 1.0) {
      boost = std::pow(std::max(rng.uniform01(), 1e-300), 1.0 / a);
      a += 1.0;
    }
    const double d = a - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    while (true) {
      double x = rng.normal();
      double v = 1.0 + c * x;
      if (v <= 0.0) continue;
      v = v * v * v;
      const double u = rng.uniform01();
      if (u < 1.0 - 0.0331 * x * x * x * x) return boost * d * v;
      if (std::log(std::max(u, 1e-300)) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
        return boost * d * v;
      }
    }
  };
  std::vector<double> weights(classes);
  double total = 0.0;
  for (double& w : weights) {
    w = gamma_draw(alpha);
    total += w;
  }
  if (total <= 0.0) {
    // Numerically degenerate draw (alpha tiny): fall back to a point mass.
    weights.assign(classes, 0.0);
    weights[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(classes) - 1))] = 1.0;
    return weights;
  }
  for (double& w : weights) w /= total;
  return weights;
}

std::vector<std::size_t> contributed_indices(std::size_t samples, double fraction,
                                             std::uint64_t seed) {
  if (!(fraction >= 0.0 && fraction <= 1.0)) {  // NaN too: lround(NaN) has no value
    throw std::invalid_argument("contributed_indices: fraction must be in [0, 1]");
  }
  Rng rng(seed);
  std::vector<std::size_t> permutation = rng.permutation(samples);
  const std::size_t take =
      static_cast<std::size_t>(std::lround(fraction * static_cast<double>(samples)));
  permutation.resize(std::max<std::size_t>(take, fraction > 0.0 ? 1 : 0));
  return permutation;
}

}  // namespace tradefl::fl
