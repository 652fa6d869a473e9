"""Benchmark experiments; each ``bench_*.py`` writes one BENCH payload."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def record_in_ledger(*payloads):
    """Append BENCH payloads to the run-history ledger at the repo root.

    Records are keyed by the checkout's git revision, so ``repro bench
    compare --ledger`` and later runs can gate against this machine's
    trajectory.  Returns the number of records appended.
    """
    from repro.obs.history import (
        DEFAULT_HISTORY_PATH,
        HistoryLedger,
        git_revision,
    )

    ledger = HistoryLedger(ROOT / DEFAULT_HISTORY_PATH)
    rev = git_revision(str(ROOT))
    count = sum(ledger.ingest(payload, git_rev=rev) for payload in payloads)
    print(
        "ledger: {} entries appended to {} (rev {})".format(
            count, ledger.path, rev or "unknown"
        )
    )
    return count
