// Block-cyclic distribution of the factorization's per-iteration tasks.
//
// The default layout is 1-D: block column j of the matrix is owned by device
// j mod D (ScaLAPACK-style 1-D block-cyclic). At iteration k the trailing
// block columns k+1 .. K-1 are updated in place by their owners, so a
// device's share of the iteration's PU/TMU/checksum work is the fraction of
// trailing columns it owns — balanced early, and degrading gracefully to a
// single owner in the last iterations when fewer trailing columns remain
// than devices.
//
// A p x q process grid generalizes this to the 2-D block-cyclic layout:
// trailing block (i, j) is owned by device (j mod p) + p * (i mod q), so a
// device's share is its fraction of the (K-k-1)^2 trailing blocks. q = 1
// with p = D recovers the 1-D layout exactly — same owners, same counts,
// and share() computes through the 1-D arithmetic bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "predict/workload.hpp"

namespace bsr::cluster {

struct BlockCyclic {
  int devices = 1;
  /// Process grid: grid_p owners across block columns, grid_q across block
  /// rows (grid_p * grid_q == devices). 0/0 = the 1-D layout (devices x 1).
  int grid_p = 0;
  int grid_q = 0;

  [[nodiscard]] int p() const { return grid_p > 0 ? grid_p : devices; }
  [[nodiscard]] int q() const { return grid_q > 0 ? grid_q : 1; }

  /// Owner of trailing block (block_row, block_col) on the process grid.
  [[nodiscard]] int owner_block(std::int64_t block_row,
                                std::int64_t block_col) const {
    return static_cast<int>(block_col % p()) +
           p() * static_cast<int>(block_row % q());
  }

  /// Owner of diagonal block (and thus panel) j: the device that ships panel
  /// j home for the look-ahead. Equals j mod devices on the 1-D layout.
  [[nodiscard]] int owner(std::int64_t block_col) const {
    return owner_block(block_col, block_col);
  }

  /// Device d's row group (0 .. q-1) — which slice of the broadcast panel it
  /// consumes — and column group (0 .. p-1).
  [[nodiscard]] int row_group(int d) const { return d / p(); }
  [[nodiscard]] int col_group(int d) const { return d % p(); }

  /// Number of trailing block columns (k+1 .. K-1) in device d's column
  /// group at iteration k. On the 1-D layout this is exactly the number of
  /// trailing columns d owns; on a 2-D grid it is the column extent of d's
  /// local block set.
  [[nodiscard]] std::int64_t local_cols(const predict::WorkloadModel& wl,
                                        int k, int d) const;

  /// Number of trailing blocks (i, j) in [k+1, K)^2 owned by device d.
  [[nodiscard]] std::int64_t local_blocks(const predict::WorkloadModel& wl,
                                          int k, int d) const;

  /// True when d owns at least one trailing block at iteration k.
  [[nodiscard]] bool has_work(const predict::WorkloadModel& wl, int k,
                              int d) const;

  /// d's fraction of iteration k's trailing-update work, in [0, 1]; the
  /// shares over all devices sum to 1 while trailing blocks remain, and to 0
  /// at the final iteration (no trailing matrix left).
  [[nodiscard]] double share(const predict::WorkloadModel& wl, int k,
                             int d) const;

  /// Fraction of the broadcast panel consumed by row group rg at iteration
  /// k: the trailing block rows owned by rg over all trailing block rows
  /// (exactly 1 on the 1-D layout).
  [[nodiscard]] double row_slice(const predict::WorkloadModel& wl, int k,
                                 int rg) const;

  /// share() from counts: a device whose column group holds `cols` and whose
  /// row group holds `rows` of the `trailing` trailing block columns (and
  /// rows). share() and LayoutTable both compute through it.
  [[nodiscard]] double share_of(std::int64_t cols, std::int64_t rows,
                                std::int64_t trailing) const;
  /// row_slice() from the row group's count `rows` of `trailing`.
  [[nodiscard]] double row_slice_of(std::int64_t rows,
                                    std::int64_t trailing) const;
};

/// BlockCyclic's per-(iteration, device) values for one run, computed once
/// from per-(iteration, column group) and per-(iteration, row group) counts
/// through share_of() and row_slice_of(), so every entry has the bits of the
/// BlockCyclic call it replaces. The cluster engine reads these instead of
/// re-deriving the layout with 64-bit divisions per event.
class LayoutTable {
 public:
  LayoutTable(const BlockCyclic& dist, const predict::WorkloadModel& wl);

  /// BlockCyclic::share(wl, k, d).
  [[nodiscard]] double share(int k, int d) const { return at(k, d).share; }
  /// BlockCyclic::has_work(wl, k, d).
  [[nodiscard]] bool has_work(int k, int d) const {
    return at(k, d).has_work;
  }
  /// BlockCyclic::row_slice(wl, k, row_group(d)): the panel slice d's row
  /// group consumes.
  [[nodiscard]] double row_slice(int k, int d) const {
    return at(k, d).row_slice;
  }
  /// BlockCyclic::local_cols(wl, k, d).
  [[nodiscard]] std::int64_t local_cols(int k, int d) const {
    return cols_[static_cast<std::size_t>(k) * static_cast<std::size_t>(p_) +
                 static_cast<std::size_t>(d % p_)];
  }
  /// BlockCyclic::owner(k), the owner of panel k.
  [[nodiscard]] int owner(int k) const {
    return owners_[static_cast<std::size_t>(k)];
  }

 private:
  struct Entry {
    double share = 0.0;
    double row_slice = 0.0;
    bool has_work = false;
  };
  [[nodiscard]] const Entry& at(int k, int d) const {
    return entries_[static_cast<std::size_t>(k) *
                        static_cast<std::size_t>(devices_) +
                    static_cast<std::size_t>(d)];
  }

  int devices_ = 1;
  int p_ = 1;
  std::vector<Entry> entries_;       ///< flat (iteration, device)
  std::vector<std::int64_t> cols_;   ///< flat (iteration, column group)
  std::vector<int> owners_;          ///< per iteration
};

}  // namespace bsr::cluster
