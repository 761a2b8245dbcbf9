#include "src/exec/theta_kernels.h"

namespace mrtheta {

const char* JoinKernelName(JoinKernel kernel) {
  switch (kernel) {
    case JoinKernel::kGeneric:
      return "generic";
    case JoinKernel::kSortTheta:
      return "sort-theta";
  }
  return "?";
}

int ChooseSortDriver(const std::vector<JoinCondition>& conditions) {
  int equality = -1;
  for (int i = 0; i < static_cast<int>(conditions.size()); ++i) {
    const JoinCondition& cond = conditions[i];
    if (cond.op == ThetaOp::kNe) continue;
    if (cond.op == ThetaOp::kEq) {
      if (equality < 0) equality = i;
      continue;
    }
    return i;
  }
  return equality;
}

}  // namespace mrtheta
