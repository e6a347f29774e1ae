// WorkloadTable rows have the bits of WorkloadModel::iteration(k), and its
// complexity ratios those of WorkloadModel::complexity_ratio, for the three
// factorizations over several (n, b, elem_bytes), ragged last blocks
// included. Compared with memcmp.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "predict/workload.hpp"

namespace bsr::predict {
namespace {

constexpr OpKind kOps[] = {OpKind::PD,       OpKind::PU,
                           OpKind::TMU,      OpKind::Transfer,
                           OpKind::ChecksumUpdate, OpKind::ChecksumVerify};

TEST(WorkloadTable, RowsAndRatiosHaveTheBitsOfTheModel) {
  int rows = 0;
  for (const Factorization f :
       {Factorization::Cholesky, Factorization::LU, Factorization::QR}) {
    for (const auto& [n, b] : {std::pair<std::int64_t, std::int64_t>{96, 32},
                               {1000, 128},
                               {4096, 256},
                               {30720, 512},
                               {777, 777},
                               {5, 2}}) {
      for (const int eb : {4, 8}) {
        const WorkloadModel wl{f, n, b, eb};
        const WorkloadTable table(wl);
        ASSERT_EQ(table.num_iterations(), wl.num_iterations());
        for (int k = 0; k < wl.num_iterations(); ++k) {
          const IterationWork want = wl.iteration(k);
          EXPECT_EQ(std::memcmp(&want, &table.iteration(k), sizeof want), 0)
              << to_string(f) << " n=" << n << " b=" << b << " k=" << k;
          ++rows;
        }
        for (const OpKind op : kOps) {
          for (int j = 0; j < wl.num_iterations(); j += 3) {
            for (int k = 0; k < wl.num_iterations(); k += 2) {
              const double want = wl.complexity_ratio(op, j, k);
              const double got = table.complexity_ratio(op, j, k);
              EXPECT_EQ(std::memcmp(&want, &got, sizeof want), 0)
                  << to_string(f) << " " << to_string(op) << " j=" << j
                  << " k=" << k;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(rows, 500);
}

}  // namespace
}  // namespace bsr::predict
