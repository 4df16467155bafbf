// Cloud cost model (paper §6: P3 EC2 instances, EBS, S3).
//
// The evaluation platform: "P3.8xLarge EC2 instances with 4 Tesla V100
// GPUs ... and an EBS bandwidth of 7Gbps"; Fig. 14 compares against
// P3.2xLarge (1 GPU). Prices are the us-east-1 on-demand rates
// contemporaneous with the paper.

#ifndef FLOR_SIM_COST_MODEL_H_
#define FLOR_SIM_COST_MODEL_H_

#include <cstdint>
#include <string>

namespace flor {
namespace sim {

/// An EC2 instance type.
struct Ec2Instance {
  const char* name;
  int gpus;
  double dollars_per_hour;
};

inline constexpr Ec2Instance kP3_2xLarge{"P3.2xLarge", 1, 3.06};
inline constexpr Ec2Instance kP3_8xLarge{"P3.8xLarge", 4, 12.24};

/// Dollar cost of running `instance` for `seconds` (billed continuously).
double InstanceCost(const Ec2Instance& instance, double seconds);

}  // namespace sim
}  // namespace flor

#endif  // FLOR_SIM_COST_MODEL_H_
