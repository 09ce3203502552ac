//! A poisoned collective unwinds without running the panic hook: the
//! abort is the expected way surviving ranks leave a rendezvous whose
//! peer died, so it must not print a "panicked at" backtrace per rank.
//! Runs in its own test binary because the panic hook is process-global.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hf_simcluster::{CollectiveAbort, CommGroup, DeviceId};

#[test]
fn poisoned_exchange_unwinds_without_the_panic_hook() {
    let hook_calls = Arc::new(AtomicUsize::new(0));
    let counter = hook_calls.clone();
    std::panic::set_hook(Box::new(move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
    }));

    let group = CommGroup::new(vec![DeviceId(0), DeviceId(1)]);
    group.poison("rank 1 killed");
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        group.exchange(0, 1.0f32);
    }));
    let _ = std::panic::take_hook();

    let payload = res.expect_err("exchange on a poisoned group must unwind");
    let abort = payload.downcast_ref::<CollectiveAbort>().expect("CollectiveAbort payload");
    assert_eq!(abort.reason, "rank 1 killed");
    assert_eq!(hook_calls.load(Ordering::SeqCst), 0, "the abort must skip the panic hook");
}
