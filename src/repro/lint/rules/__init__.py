"""The shipped rule packs; importing this module registers them all.

================  =========  =====================================
pack              ids        invariant
================  =========  =====================================
determinism       DET001-3   no wall clock, no unseeded/global RNG,
                             no set-order reaching counters/events
telemetry         TEL001-2   emit kinds registered, no dead kinds
scheme registry   REG001-3   SCHEMES entries literal, constructors
                             importable and signature-correct,
                             override keys valid
storage budget    BUD001-3   Table II geometry within the paper's
                             7.6 KB storage claim
asyncio hygiene   ASY001-4   no blocking calls on the event loop
                             (interprocedural), coroutines awaited,
                             task refs kept, no await under lock
lock discipline   LCK001-2   guarded attributes stay guarded, lock
                             nesting order globally consistent
resource safety   RES001-2   handles closed on all paths, raw fds
                             never leaked across a raise
framework         LNT001-2   no stale suppressions, files parse
================  =========  =====================================
"""

from . import (  # noqa: F401
    budget,
    concurrency,
    determinism,
    envvars,
    exceptions,
    registry,
    telemetry,
)

__all__ = ["budget", "concurrency", "determinism", "envvars",
           "exceptions", "registry", "telemetry"]
