#include "sched/tasks.hpp"

namespace bsr::sched {

TaskDurations compute_durations(const predict::IterationWork& w,
                                const hw::TransferModel& link,
                                const hw::ClockState& cpu,
                                const hw::ClockState& gpu,
                                abft::ChecksumMode abft_mode) {
  TaskDurations d;
  d.pd = cpu.time_for_flops(w.pd_flops, hw::KernelClass::Panel);
  d.pu = gpu.time_for_flops(w.pu_flops, hw::KernelClass::Blas3);
  d.tmu = gpu.time_for_flops(w.tmu_flops, hw::KernelClass::Blas3);
  d.transfer = link.time_for_bytes(w.transfer_bytes);

  switch (abft_mode) {
    case abft::ChecksumMode::None:
      d.chk_update = SimTime::zero();
      d.chk_verify = SimTime::zero();
      break;
    case abft::ChecksumMode::SingleSide:
      d.chk_update = gpu.time_for_flops(w.checksum_update_flops_single,
                                        hw::KernelClass::ChecksumUpdate);
      d.chk_verify = gpu.time_for_bytes(w.checksum_verify_bytes_single);
      break;
    case abft::ChecksumMode::Full:
      d.chk_update = gpu.time_for_flops(w.checksum_update_flops_full,
                                        hw::KernelClass::ChecksumUpdate);
      d.chk_verify = gpu.time_for_bytes(w.checksum_verify_bytes_full);
      break;
  }
  return d;
}

}  // namespace bsr::sched
