#include "sim/cost_model.h"

namespace flor {
namespace sim {

double InstanceCost(const Ec2Instance& instance, double seconds) {
  return instance.dollars_per_hour * seconds / 3600.0;
}

}  // namespace sim
}  // namespace flor
