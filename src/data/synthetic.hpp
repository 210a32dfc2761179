// Procedural stand-ins for the paper's four datasets (§IV-A1).
//
// Real MNIST/FMNIST/KMNIST/EMNIST are loaded via data/idx.hpp when present;
// in a fully offline environment these generators produce four *distinct*
// 10-class 28x28 grayscale tasks that exercise exactly the same DONN code
// paths (encoding, training, readout all see 28x28 grayscale images with
// ten labels, whichever source produced them):
//   * Digits  — stroke-rendered digits 0-9                  (MNIST stand-in)
//   * Fashion — filled apparel silhouettes                  (FMNIST stand-in)
//   * Kana    — cursive multi-stroke glyphs                 (KMNIST stand-in)
//   * Letters — stroke-rendered letters A-J                 (EMNIST stand-in)
// Every sample is drawn with randomized affine jitter (shift / rotation /
// scale), stroke-thickness jitter and additive pixel noise, so classes have
// genuine intra-class variation and the tasks are not trivially separable.
#pragma once

#include <cstdint>
#include <string>

#include "data/dataset.hpp"

namespace odonn::data {

enum class SyntheticFamily { Digits, Fashion, Kana, Letters };

/// Accepts family names and the paper's dataset names:
/// "digits"/"mnist", "fashion"/"fmnist", "kana"/"kmnist",
/// "letters"/"emnist".
SyntheticFamily parse_family(const std::string& name);
const char* family_name(SyntheticFamily family);

struct SyntheticOptions {
  std::size_t image_size = 28;
  double noise_sigma = 0.03;       ///< additive Gaussian pixel noise
  double max_shift = 0.08;         ///< translation jitter (fraction of size)
  double max_rotate = 0.22;        ///< rotation jitter [rad]
  double scale_jitter = 0.12;      ///< multiplicative scale jitter
  double thickness_jitter = 0.35;  ///< stroke thickness jitter (fraction)
};

/// Renders a single jittered glyph for class `cls` (0-9).
MatrixD render_glyph(SyntheticFamily family, std::size_t cls, Rng& rng,
                     const SyntheticOptions& options = {});

/// Builds a class-balanced dataset of `count` samples (labels shuffled).
Dataset make_synthetic(SyntheticFamily family, std::size_t count,
                       std::uint64_t seed, const SyntheticOptions& options = {});

}  // namespace odonn::data
