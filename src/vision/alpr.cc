#include "vision/alpr.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/glyphs.h"

namespace visualroad::vision {

namespace {

/// The canonical plate layout: a 38x9 cell grid (1-cell border, six glyph
/// cells of 6 columns), matching the simulator's plate shader.
constexpr int kGridW = 38;
constexpr int kGridH = 9;

/// Value of the canonical template at grid cell (gx, gy): 1 = plate white,
/// 0 = glyph dark.
float TemplateCell(const std::string& plate, int gx, int gy) {
  if (gx >= 1 && gx < kGridW - 1 && gy >= 1 && gy < kGridH - 1) {
    int cell = (gx - 1) / 6;
    int col = (gx - 1) % 6;
    if (cell < 6 && col < kGlyphWidth &&
        GlyphPixel(plate[static_cast<size_t>(cell)], col, gy - 1)) {
      return 0.0f;
    }
  }
  return 1.0f;
}

/// Normalised cross-correlation between two 1-D profiles of length n.
double ProfileNcc(const double* a, const double* b, int n) {
  double sum_a = 0, sum_b = 0, sum_aa = 0, sum_bb = 0, sum_ab = 0;
  for (int i = 0; i < n; ++i) {
    sum_a += a[i];
    sum_b += b[i];
    sum_aa += a[i] * a[i];
    sum_bb += b[i] * b[i];
    sum_ab += a[i] * b[i];
  }
  double cov = sum_ab - sum_a * sum_b / n;
  double var_a = sum_aa - sum_a * sum_a / n;
  double var_b = sum_bb - sum_b * sum_b / n;
  if (var_a <= 1e-9 || var_b <= 1e-9) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

/// Two-band brightness profile of a plate's glyph interior: for each of the
/// 36 text columns, the plate-white fraction of the glyph's top half (rows
/// 0-3) and bottom half (rows 3-7) separately. Splitting vertically roughly
/// doubles the discriminative power over a flat column profile ('7' is dark
/// on top, 'L' at the bottom) while staying integral-image friendly.
std::array<std::array<double, 36>, 2> InteriorBandProfiles(
    const std::string& plate) {
  std::array<std::array<double, 36>, 2> profiles{};
  for (int gx = 0; gx < 36; ++gx) {
    int cell = gx / 6;
    int col = gx % 6;
    int dark_top = 0, dark_bottom = 0;
    for (int gy = 0; gy < kGlyphHeight; ++gy) {
      bool dark = col < kGlyphWidth &&
                  GlyphPixel(plate[static_cast<size_t>(cell)], col, gy);
      if (!dark) continue;
      if (gy < kGlyphHeight / 2) {
        ++dark_top;
      } else {
        ++dark_bottom;
      }
    }
    // Integer split: rows [0, 3) on top (3 rows), [3, 7) below (4 rows).
    profiles[0][static_cast<size_t>(gx)] =
        1.0 - static_cast<double>(dark_top) / (kGlyphHeight / 2);
    profiles[1][static_cast<size_t>(gx)] =
        1.0 - static_cast<double>(dark_bottom) / (kGlyphHeight - kGlyphHeight / 2);
  }
  return profiles;
}

/// Column-wise integral image of the luma plane: sums[y][x] = sum of column
/// x over rows [0, y). Lets any horizontal strip's column means be read in
/// O(1) per column.
std::vector<uint32_t> ColumnIntegral(const video::Frame& frame) {
  int w = frame.width(), h = frame.height();
  std::vector<uint32_t> sums(static_cast<size_t>(w) * (h + 1), 0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      sums[static_cast<size_t>(y + 1) * w + x] =
          sums[static_cast<size_t>(y) * w + x] + frame.Y(x, y);
    }
  }
  return sums;
}

}  // namespace

std::vector<float> RenderPlateTemplate(const std::string& plate, int width,
                                       int height) {
  std::vector<float> tmpl(static_cast<size_t>(width) * height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      // Nearest-cell sampling of the canonical grid.
      int gx = std::min(kGridW - 1, x * kGridW / width);
      int gy = std::min(kGridH - 1, y * kGridH / height);
      tmpl[static_cast<size_t>(y) * width + x] = TemplateCell(plate, gx, gy);
    }
  }
  return tmpl;
}

PlateSearchResult PlateRecognizer::FindPlate(const video::Frame& frame,
                                             const RectI& region,
                                             const std::string& plate) const {
  PlateSearchResult best;
  if (plate.size() != 6) return best;
  RectI search = region.Clamp(frame.width(), frame.height());
  if (search.Empty()) return best;

  // Matched filtering on the glyph interior's two-band brightness profiles:
  // at the plate scales Q8 deals with (10-40px wide) individual glyph
  // columns approach one pixel, so the discriminative signal is the column
  // intensity sequence (split into the glyph's top and bottom halves), not
  // 2-D glyph shapes. A columnwise integral image makes every candidate
  // strip's profiles O(width) to extract, allowing an exhaustive
  // multi-scale stride-1 search.
  std::array<std::array<double, 36>, 2> grid_profiles = InteriorBandProfiles(plate);
  std::vector<uint32_t> integral = ColumnIntegral(frame);
  int frame_w = frame.width();

  std::vector<double> tmpl_profile, window_profile;
  for (int w = 9; w <= search.Width(); w += std::max(1, w / 10)) {
    int h = std::max(4, w * (kGridH - 2) / (kGridW - 2));
    if (h > search.Height()) continue;
    // Resample the 36-column band profiles to w columns, skipping the
    // inter-glyph gap columns: the gaps are identical on every plate, so
    // including them lets any plate (or any comb-like texture) correlate
    // with any other. Only glyph-bearing columns carry identity. The
    // concatenated template is [top-band columns, bottom-band columns].
    tmpl_profile.clear();
    std::vector<int> column_offsets;
    for (int x = 0; x < w; ++x) {
      int grid_column = std::min(35, x * 36 / w);
      if (grid_column % 6 == 5) continue;  // Gap column.
      tmpl_profile.push_back(grid_profiles[0][static_cast<size_t>(grid_column)]);
      column_offsets.push_back(x);
    }
    int n = static_cast<int>(column_offsets.size());
    if (n < 6) continue;
    for (int c = 0; c < n; ++c) {
      int grid_column =
          std::min(35, column_offsets[static_cast<size_t>(c)] * 36 / w);
      tmpl_profile.push_back(grid_profiles[1][static_cast<size_t>(grid_column)]);
    }
    window_profile.resize(static_cast<size_t>(2 * n));
    // The window's band split mirrors the glyph split (3 of 7 rows on top).
    int mid = std::max(1, h * (kGlyphHeight / 2) / kGlyphHeight);
    int y_stride = std::max(1, h / 3);
    for (int y = search.y0; y + h <= search.y1; y += y_stride) {
      for (int x = search.x0; x + w <= search.x1; ++x) {
        for (int c = 0; c < n; ++c) {
          int column = x + column_offsets[static_cast<size_t>(c)];
          uint32_t top = integral[static_cast<size_t>(y) * frame_w + column];
          uint32_t middle = integral[static_cast<size_t>(y + mid) * frame_w + column];
          uint32_t bottom = integral[static_cast<size_t>(y + h) * frame_w + column];
          window_profile[static_cast<size_t>(c)] =
              static_cast<double>(middle - top) / mid;
          window_profile[static_cast<size_t>(n + c)] =
              static_cast<double>(bottom - middle) / (h - mid);
        }
        double score =
            ProfileNcc(tmpl_profile.data(), window_profile.data(), 2 * n);
        if (score > best.score) {
          best.score = score;
          best.box = {x, y, x + w, y + h};
        }
      }
    }
  }
  best.found = best.score >= kPlateMatchThreshold;
  return best;
}

StatusOr<std::string> PlateRecognizer::ReadPlate(const video::Frame& frame,
                                                 const RectI& plate_box) const {
  RectI box = plate_box.Clamp(frame.width(), frame.height());
  if (box.Width() < 8 || box.Height() < 3) {
    return Status::InvalidArgument("plate region too small to read");
  }
  // Resample the region onto the canonical grid.
  std::vector<double> grid(kGridW * kGridH, 0.0);
  for (int gy = 0; gy < kGridH; ++gy) {
    for (int gx = 0; gx < kGridW; ++gx) {
      double fx = box.x0 + (gx + 0.5) / kGridW * box.Width();
      double fy = box.y0 + (gy + 0.5) / kGridH * box.Height();
      int x = std::clamp(static_cast<int>(fx), 0, frame.width() - 1);
      int y = std::clamp(static_cast<int>(fy), 0, frame.height() - 1);
      grid[static_cast<size_t>(gy) * kGridW + gx] = frame.Y(x, y) / 255.0;
    }
  }
  // Binarise against the region mean.
  double mean = 0.0;
  for (double v : grid) mean += v;
  mean /= grid.size();

  static const char kAlphabet[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::string result(6, '?');
  for (int cell = 0; cell < 6; ++cell) {
    char best_char = '?';
    int best_error = INT32_MAX;
    for (char c : std::string(kAlphabet)) {
      int error = 0;
      for (int gy = 0; gy < kGlyphHeight; ++gy) {
        for (int col = 0; col < 6; ++col) {
          int gx = 1 + cell * 6 + col;
          bool observed_dark =
              grid[static_cast<size_t>(gy + 1) * kGridW + gx] < mean;
          bool template_dark = col < kGlyphWidth && GlyphPixel(c, col, gy);
          if (observed_dark != template_dark) ++error;
        }
      }
      if (error < best_error) {
        best_error = error;
        best_char = c;
      }
    }
    result[static_cast<size_t>(cell)] = best_char;
  }
  return result;
}

}  // namespace visualroad::vision
