#include "gridsearch/grid.h"

#include <algorithm>
#include <thread>

#include "support/check.h"
#include "support/thread_pool.h"

namespace xcv::gridsearch {

Grid::Grid(std::vector<Axis> axes) : axes_(std::move(axes)) {
  XCV_CHECK_MSG(!axes_.empty() && axes_.size() <= 3,
                "grids are 1-3 dimensional");
  for (const Axis& a : axes_) {
    XCV_CHECK_MSG(a.n >= 1, "axis needs at least one point");
    XCV_CHECK_MSG(a.lo <= a.hi, "axis bounds out of order");
    total_ *= a.n;
  }
  strides_.assign(axes_.size(), 1);
  for (std::size_t d = axes_.size(); d-- > 1;)
    strides_[d - 1] = strides_[d] * axes_[d].n;
}

std::size_t Grid::Index(std::span<const std::size_t> coords) const {
  XCV_CHECK(coords.size() == axes_.size());
  std::size_t idx = 0;
  for (std::size_t d = 0; d < axes_.size(); ++d) {
    XCV_DCHECK(coords[d] < axes_[d].n);
    idx += coords[d] * strides_[d];
  }
  return idx;
}

std::vector<std::size_t> Grid::Coords(std::size_t index) const {
  XCV_DCHECK(index < total_);
  std::vector<std::size_t> coords(axes_.size());
  for (std::size_t d = 0; d < axes_.size(); ++d) {
    coords[d] = index / strides_[d];
    index %= strides_[d];
  }
  return coords;
}

std::vector<double> Grid::Point(std::size_t index) const {
  const auto coords = Coords(index);
  std::vector<double> p(axes_.size());
  for (std::size_t d = 0; d < axes_.size(); ++d)
    p[d] = axes_[d].At(coords[d]);
  return p;
}

namespace {

constexpr std::size_t kGridChunk = 1024;
constexpr std::size_t kNoPinnedDim = static_cast<std::size_t>(-1);

// Evaluates grid points [begin, end) into out[begin..end), chunk by chunk.
// Each worker owns its coordinate rows and batch scratch; disjoint output
// ranges make the parallel version race-free and bit-identical to serial.
// Axis `pinned_dim` (if < rank) reads `pinned_value` instead of its
// coordinate.
void EvalGridRange(const Grid& grid, const expr::Tape& tape,
                   std::size_t begin, std::size_t end, double* out,
                   std::size_t pinned_dim, double pinned_value) {
  const std::size_t rank = grid.Rank();
  const std::size_t env_slots = std::max<std::size_t>(
      rank, static_cast<std::size_t>(tape.num_env_slots));
  std::vector<std::vector<double>> rows(env_slots);
  for (auto& row : rows) row.assign(kGridChunk, 0.0);
  if (pinned_dim < rank)
    std::fill(rows[pinned_dim].begin(), rows[pinned_dim].end(), pinned_value);
  std::vector<const double*> inputs(env_slots);
  for (std::size_t d = 0; d < env_slots; ++d) inputs[d] = rows[d].data();
  expr::TapeBatchScratch scratch;
  scratch.Reserve(tape.size(), kGridChunk);  // no lazy growth mid-range

  for (std::size_t start = begin; start < end; start += kGridChunk) {
    const std::size_t n = std::min(kGridChunk, end - start);
    for (std::size_t d = 0; d < rank; ++d) {
      if (d == pinned_dim) continue;
      const Axis& axis = grid.axis(d);
      double* row = rows[d].data();
      for (std::size_t j = 0; j < n; ++j)
        row[j] = axis.At(((start + j) / grid.stride(d)) % axis.n);
    }
    expr::EvalTapeBatch(tape, inputs, n, out + start, scratch);
  }
}

std::vector<double> RunGridEval(const Grid& grid, const expr::Tape& tape,
                                std::size_t num_threads,
                                std::size_t pinned_dim, double pinned_value) {
  const std::size_t total = grid.TotalPoints();
  std::vector<double> out(total);
  if (total == 0) return out;

  if (num_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw == 0 ? 1 : hw;
  }
  num_threads = std::min(num_threads, (total + kGridChunk - 1) / kGridChunk);

  if (num_threads <= 1) {
    EvalGridRange(grid, tape, 0, total, out.data(), pinned_dim, pinned_value);
    return out;
  }

  // Contiguous slices, rounded to chunk boundaries so no chunk straddles
  // two workers; one group on a pool of their own.
  ThreadPool pool(num_threads);
  const auto slices = pool.MakeGroup();
  const std::size_t chunks = (total + kGridChunk - 1) / kGridChunk;
  const std::size_t chunks_per_worker =
      (chunks + num_threads - 1) / num_threads;
  for (std::size_t w = 0; w < num_threads; ++w) {
    const std::size_t begin =
        std::min(total, w * chunks_per_worker * kGridChunk);
    const std::size_t end =
        std::min(total, (w + 1) * chunks_per_worker * kGridChunk);
    if (begin >= end) break;
    pool.Submit(slices, 0.0, [&grid, &tape, begin, end, &out, pinned_dim,
                              pinned_value] {
      EvalGridRange(grid, tape, begin, end, out.data(), pinned_dim,
                    pinned_value);
    });
  }
  pool.Wait(slices);
  return out;
}

}  // namespace

std::vector<double> EvaluateOnGrid(const Grid& grid, const expr::Tape& tape,
                                   std::size_t num_threads) {
  return RunGridEval(grid, tape, num_threads, kNoPinnedDim, 0.0);
}

std::vector<double> EvaluateOnGridPinned(const Grid& grid,
                                         const expr::Tape& tape,
                                         std::size_t pinned_dim,
                                         double pinned_value,
                                         std::size_t num_threads) {
  XCV_CHECK(pinned_dim < grid.Rank());
  return RunGridEval(grid, tape, num_threads, pinned_dim, pinned_value);
}

std::vector<double> NumericalGradient(const Grid& grid,
                                      const std::vector<double>& values,
                                      std::size_t dim) {
  XCV_CHECK(values.size() == grid.TotalPoints());
  XCV_CHECK(dim < grid.Rank());
  const Axis& axis = grid.axis(dim);
  XCV_CHECK_MSG(axis.n >= 2, "gradient needs at least two points");
  const double h = axis.Step();

  // Stride of one step along `dim`.
  std::size_t stride = 1;
  for (std::size_t d = grid.Rank(); d-- > dim + 1;) stride *= grid.axis(d).n;

  std::vector<double> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::size_t pos = (i / stride) % axis.n;
    if (pos == 0) {
      out[i] = (values[i + stride] - values[i]) / h;
    } else if (pos == axis.n - 1) {
      out[i] = (values[i] - values[i - stride]) / h;
    } else {
      out[i] = (values[i + stride] - values[i - stride]) / (2.0 * h);
    }
  }
  return out;
}

}  // namespace xcv::gridsearch
