#include "sim/scheduler.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace ltrf
{

TwoLevelScheduler::TwoLevelScheduler(int num_active,
                                     std::vector<Warp> &warps_)
    : num_active_slots(num_active), warps(warps_),
      ready_queue(static_cast<int>(warps_.size())),
      waiting((warps_.size() + 63) / 64, 0)
{
    ltrf_assert(num_active >= 1, "active pool must hold >= 1 warp");
    for (std::size_t i = 0; i < warps.size(); i++)
        ltrf_assert(warps[i].id == static_cast<WarpId>(i),
                    "warp %zu has id %d", i, warps[i].id);
}

void
TwoLevelScheduler::tick(Cycle now, RegFileSystem &rf)
{
    // Promote warps whose activation or memory wait has resolved.
    // Gated on the tracked earliest transition: when nothing can
    // promote yet, the whole warp walk is skipped. When it runs, the
    // walk visits warps in id order exactly as an ungated scan
    // would, so the ready queue fills in the same order.
    if (next_transition <= now) {
        next_transition = NEVER;
        for (std::size_t word = 0; word < waiting.size(); word++) {
            for (std::uint64_t bits = waiting[word]; bits != 0;
                 bits &= bits - 1) {
                const int bit = std::countr_zero(bits);
                Warp &w = warps[word * 64 + static_cast<std::size_t>(bit)];
                if (w.wait_until > now) {
                    next_transition =
                            std::min(next_transition, w.wait_until);
                    continue;
                }
                waiting[word] &= ~(std::uint64_t{1} << bit);
                if (w.state == WarpState::ACTIVATING) {
                    w.state = WarpState::ACTIVE;
                    w.ready_at = std::max(w.ready_at, w.wait_until);
                } else {
                    w.state = WarpState::INACTIVE_READY;
                    ready_queue.release(w.id);
                    num_wait--;
                }
            }
        }
    }

    // Fill free active slots from the inactive-ready queue.
    while (poolHasRoom() && ready_queue.freeCount() > 0) {
        WarpId id = ready_queue.allocate();
        Warp &w = warps[id];
        ltrf_assert(w.state == WarpState::INACTIVE_READY,
                    "warp %d in ready queue but state %d", id,
                    static_cast<int>(w.state));
        Cycle done = rf.activate(id, now);
        active.push_back(id);
        stat_activations++;
        if (done <= now) {
            w.state = WarpState::ACTIVE;
            w.ready_at = std::max(w.ready_at, now);
        } else {
            w.state = WarpState::ACTIVATING;
            w.wait_until = done;
            setWaiting(id);
            next_transition = std::min(next_transition, done);
            stat_slow_activations++;
        }
    }
    ltrf_assert(!poolHasRoom() || ready_queue.freeCount() == 0,
                "pool %zu/%d with %d ready warps queued", active.size(),
                num_active_slots, ready_queue.freeCount());
}

void
TwoLevelScheduler::deactivate(Warp &w, Cycle until, RegFileSystem &rf,
                              Cycle now)
{
    ltrf_assert(w.state == WarpState::ACTIVE,
                "deactivating non-active warp %d", w.id);
    rf.deactivate(w.id, now);
    removeActive(w.id);
    w.state = WarpState::INACTIVE_WAIT;
    w.wait_until = until;
    setWaiting(w.id);
    num_wait++;
    next_transition = std::min(next_transition, until);
    stat_deactivations++;
}

void
TwoLevelScheduler::finish(Warp &w, RegFileSystem &rf, Cycle now)
{
    ltrf_assert(w.state == WarpState::ACTIVE,
                "finishing non-active warp %d", w.id);
    rf.deactivate(w.id, now);
    removeActive(w.id);
    w.state = WarpState::FINISHED;
    num_finished++;
    stat_finishes++;
}

void
TwoLevelScheduler::removeActive(WarpId id)
{
    auto it = std::find(active.begin(), active.end(), id);
    ltrf_assert(it != active.end(), "warp %d not in active pool", id);
    size_t pos = static_cast<size_t>(it - active.begin());
    active.erase(it);
    if (rr > static_cast<int>(pos))
        rr--;
    if (!active.empty())
        rr %= static_cast<int>(active.size());
    else
        rr = 0;
}

} // namespace ltrf
