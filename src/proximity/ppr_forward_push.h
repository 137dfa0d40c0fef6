#ifndef AMICI_PROXIMITY_PPR_FORWARD_PUSH_H_
#define AMICI_PROXIMITY_PPR_FORWARD_PUSH_H_

#include <string_view>

#include "proximity/proximity_model.h"

namespace amici {

/// Local forward push (Andersen, Chung & Lang 2006): maintains per-user
/// estimates p and residuals r; repeatedly pushes any residual with
/// r[u] > epsilon · deg(u), settling restart_prob of it into p[u] and
/// spreading the rest over u's friends. Touches only the vicinity of the
/// source — cost is O(1 / (restart_prob · epsilon)) independent of graph
/// size, which is what makes per-query PPR practical.
///
/// Guarantee: |p[v] − π[v]| ≤ epsilon · deg(v) for every v.
///
/// State lives in per-thread, epoch-stamped scratch rather than hash
/// maps: dense stamp[u]/slot[u] arrays (uint32_t each, grown to the
/// largest num_users the thread has seen) map a user to a compact record
/// (estimate, residual, threshold, user, queued flag), and a new call
/// bumps the epoch instead of clearing anything. The threshold
/// epsilon · max(deg, 1) is computed once per touched user, and the FIFO
/// is a reused ring of record indices. Memory is 8 B × num_users per
/// computing thread (160 KB at 20k users), plus 32 B records and a ring
/// sized by the largest push the thread has run.
///
/// The result does not depend on scratch state: the push order (FIFO,
/// `r < threshold` skip on pop, `>=` on enqueue, dangling mass back to
/// the source) is fixed, so the output is bit-identical across calls,
/// threads and graph sizes.
class PprForwardPush : public ProximityModel {
 public:
  /// `restart_prob` in (0, 1); `epsilon` > 0 controls the accuracy/cost
  /// trade-off (smaller = more accurate, slower).
  explicit PprForwardPush(double restart_prob = 0.15, double epsilon = 1e-4);

  std::string_view name() const override { return "ppr-push"; }
  ProximityVector Compute(const SocialGraph& graph,
                          UserId source) const override;

  double epsilon() const { return epsilon_; }

 private:
  double restart_prob_;
  double epsilon_;
};

}  // namespace amici

#endif  // AMICI_PROXIMITY_PPR_FORWARD_PUSH_H_
