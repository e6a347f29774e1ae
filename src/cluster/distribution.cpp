#include "cluster/distribution.hpp"

#include <algorithm>

namespace bsr::cluster {

namespace {

/// Count of j in [first, last) with j mod m == r.
std::int64_t cyclic_count(std::int64_t first, std::int64_t last,
                          std::int64_t m, std::int64_t r) {
  if (first >= last) return 0;
  const std::int64_t lo = first + ((r - first) % m + m) % m;
  if (lo >= last) return 0;
  return (last - 1 - lo) / m + 1;
}

}  // namespace

std::int64_t BlockCyclic::local_cols(const predict::WorkloadModel& wl, int k,
                                     int d) const {
  const std::int64_t first = static_cast<std::int64_t>(k) + 1;
  const std::int64_t last = wl.num_iterations();  // exclusive
  return cyclic_count(first, last, p(), col_group(d));
}

std::int64_t BlockCyclic::local_blocks(const predict::WorkloadModel& wl,
                                       int k, int d) const {
  const std::int64_t first = static_cast<std::int64_t>(k) + 1;
  const std::int64_t last = wl.num_iterations();
  return local_cols(wl, k, d) *
         cyclic_count(first, last, q(), row_group(d));
}

bool BlockCyclic::has_work(const predict::WorkloadModel& wl, int k,
                           int d) const {
  return local_blocks(wl, k, d) > 0;
}

double BlockCyclic::share_of(std::int64_t cols, std::int64_t rows,
                             std::int64_t trailing) const {
  if (trailing <= 0) return 0.0;
  if (q() == 1) {
    // 1-D layout: the share is the trailing-column fraction, computed with
    // the pre-grid arithmetic so existing runs stay bit-for-bit identical.
    return static_cast<double>(cols) / static_cast<double>(trailing);
  }
  return static_cast<double>(cols * rows) /
         static_cast<double>(trailing * trailing);
}

double BlockCyclic::row_slice_of(std::int64_t rows,
                                 std::int64_t trailing) const {
  if (trailing <= 0) return 0.0;
  if (q() == 1) return 1.0;
  return static_cast<double>(rows) / static_cast<double>(trailing);
}

double BlockCyclic::share(const predict::WorkloadModel& wl, int k,
                          int d) const {
  const std::int64_t first = static_cast<std::int64_t>(k) + 1;
  const std::int64_t last = wl.num_iterations();
  return share_of(local_cols(wl, k, d),
                  cyclic_count(first, last, q(), row_group(d)), last - first);
}

double BlockCyclic::row_slice(const predict::WorkloadModel& wl, int k,
                              int rg) const {
  const std::int64_t first = static_cast<std::int64_t>(k) + 1;
  const std::int64_t last = wl.num_iterations();
  return row_slice_of(cyclic_count(first, last, q(), rg), last - first);
}

LayoutTable::LayoutTable(const BlockCyclic& dist,
                         const predict::WorkloadModel& wl)
    : devices_(dist.devices), p_(dist.p()) {
  const int iters = std::max(wl.num_iterations(), 0);
  const int q = dist.q();
  entries_.resize(static_cast<std::size_t>(iters) *
                  static_cast<std::size_t>(devices_));
  cols_.resize(static_cast<std::size_t>(iters) * static_cast<std::size_t>(p_));
  owners_.resize(static_cast<std::size_t>(iters));
  std::vector<std::int64_t> rows(static_cast<std::size_t>(q));
  const std::int64_t last = iters;
  for (int k = 0; k < iters; ++k) {
    const std::int64_t first = static_cast<std::int64_t>(k) + 1;
    std::int64_t* cols = cols_.data() + static_cast<std::size_t>(k) *
                                            static_cast<std::size_t>(p_);
    for (int cg = 0; cg < p_; ++cg) cols[cg] = cyclic_count(first, last, p_, cg);
    for (int rg = 0; rg < q; ++rg) {
      rows[static_cast<std::size_t>(rg)] = cyclic_count(first, last, q, rg);
    }
    for (int d = 0; d < devices_; ++d) {
      const std::int64_t c = cols[dist.col_group(d)];
      const std::int64_t r = rows[static_cast<std::size_t>(dist.row_group(d))];
      Entry& e = entries_[static_cast<std::size_t>(k) *
                              static_cast<std::size_t>(devices_) +
                          static_cast<std::size_t>(d)];
      e.share = dist.share_of(c, r, last - first);
      e.row_slice = dist.row_slice_of(r, last - first);
      e.has_work = c * r > 0;
    }
    owners_[static_cast<std::size_t>(k)] = dist.owner(k);
  }
}

}  // namespace bsr::cluster
