#include "minimpi/mailbox.hpp"

#include <algorithm>

#include "minimpi/fiber.hpp"
#include "support/error.hpp"

namespace fastfit::mpi {

void Mailbox::deliver(Message message) {
  // A delivery is the wake. Waking first means a delivery from outside
  // the world is rejected before it touches the queue.
  if (fiber_sched_ != nullptr) fiber_sched_->make_ready(fiber_rank_);
  queue_.push_back(std::move(message));
}

void Mailbox::set_fiber_waker(FiberScheduler* sched, int owner_rank) {
  fiber_sched_ = sched;
  fiber_rank_ = owner_rank;
}

Message Mailbox::receive(int source, std::uint64_t tag,
                         const std::chrono::steady_clock::time_point& deadline,
                         bool revocable) {
  for (;;) {
    auto it = std::find_if(queue_.begin(), queue_.end(), [&](const Message& m) {
      return m.source == source && m.tag == tag;
    });
    if (it != queue_.end()) {
      Message out = std::move(*it);
      queue_.erase(it);
      return out;
    }
    // Doom, then poison, then revocation, then the deadline: checked on
    // every resume, so a rank that arrives late never sleeps through the
    // teardown (or its own death).
    if (doom_ != nullptr && *doom_) {
      throw RankKilled(doom_rank_, "rank " + std::to_string(doom_rank_) +
                                       " killed while waiting for rank " +
                                       std::to_string(source));
    }
    if (poison_->poisoned()) {
      throw WorldAborted("mailbox wait interrupted by world teardown");
    }
    if (revocable && poison_->revoked()) {
      throw RankRevoked("communicator revoked while waiting for rank " +
                        std::to_string(source));
    }
    if (deadline_clock() >= deadline) {
      throw SimTimeout("receive from rank " + std::to_string(source) +
                       " tag " + std::to_string(tag) +
                       " never matched (job hang)");
    }
    FiberScheduler* sched = FiberScheduler::active();
    if (sched == nullptr || !sched->in_fiber()) {
      throw InternalError("Mailbox::receive: waiting for rank " +
                          std::to_string(source) +
                          " outside a rank fiber (only World ranks can park)");
    }
    // The rendezvous is the yield point: park this fiber until a
    // delivery or wake resumes it. Every wake comes from a fiber of this
    // world or its idle handler, so none can land between the checks
    // above and the park.
    sched->block_current();
  }
}

void Mailbox::wake() {
  if (fiber_sched_ != nullptr) fiber_sched_->make_ready(fiber_rank_);
}

std::size_t Mailbox::pending() const {
  return queue_.size();
}

bool Mailbox::has_match(int source, std::uint64_t tag) const {
  return std::any_of(queue_.begin(), queue_.end(), [&](const Message& m) {
    return m.source == source && m.tag == tag;
  });
}

}  // namespace fastfit::mpi
