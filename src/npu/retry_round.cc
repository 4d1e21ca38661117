#include "npu/retry_round.hh"

#include "npu/dma_engine.hh"

namespace neummu {

void
RetryRound::join(DmaEngine &dma)
{
    const Tick at = _eq.now() + 1;
    if (at == _openTick && _eq.nextSeq() == _openSeq + 1) {
        _openTail->_nextRetry = &dma;
    } else {
        _openTick = at;
        _openSeq = _eq.nextSeq();
        DmaEngine *first = &dma;
        _eq.schedule(at, [first] { fire(first); });
    }
    _openTail = &dma;
}

void
RetryRound::fire(DmaEngine *first)
{
    // Clear each link before running the member: it may join a later
    // round, whose list must end at that round's last member.
    for (DmaEngine *dma = first; dma;) {
        DmaEngine *next = dma->_nextRetry;
        dma->_nextRetry = nullptr;
        dma->retry();
        dma = next;
    }
}

} // namespace neummu
