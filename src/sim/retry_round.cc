#include "sim/retry_round.hh"

namespace neummu {

void
RetryRound::fire(RetryMember *first)
{
    // Clear each link before running the member: it may join a later
    // round, whose list must end at that round's last member.
    for (RetryMember *member = first; member;) {
        RetryMember *next = member->_nextRetry;
        member->_nextRetry = nullptr;
        member->_inRound = false;
        member->retry();
        member = next;
    }
}

} // namespace neummu
