"""Single registry of every ``REPRO_*`` environment variable.

Each knob the simulator reads from the environment is declared here
once — name, default, parser kind, digest safety, and documentation —
and every reader goes through :func:`raw` / :func:`enabled` instead of
touching ``os.environ`` directly.  ``repro check``'s DIG502 rule flags
any ``os.environ["REPRO_..."]`` read that bypasses this module, so the
table below is guaranteed complete.

Digest safety: none of these variables may influence simulation
*results*; they select execution modes (lane engine, fast-forward,
sanitizer), deployment knobs (job count, cache location), or test-only
fault injection.  The ``digest_safe=False`` marking is what DIG501
enforces — a digest-scope function in :mod:`repro.harness.cache` must
never read one of these.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Values (case-insensitive, stripped) that turn a ``kind="flag"``
#: variable off.  Anything else — including the bare empty string for a
#: *set* variable — counts as "on" for default-off flags; default-on
#: flags are only disabled by an explicit member of this set.
OFF_VALUES = frozenset({"", "0", "off", "false", "no", "none", "disabled"})


@dataclass(frozen=True)
class EnvVar:
    """One declared environment knob."""

    name: str
    #: value assumed when the variable is unset (None = genuinely unset).
    default: Optional[str]
    #: "flag" (on/off via :data:`OFF_VALUES`), "int", "choice", "path".
    kind: str
    doc: str
    #: may this variable's value influence result-store digests?
    #: Always False today: every knob is a mode/deployment flag.
    digest_safe: bool = False


REGISTRY: Dict[str, EnvVar] = {var.name: var for var in (
    EnvVar(
        "REPRO_JOBS", None, "int",
        "Worker processes for simulation fan-out (harness executor and "
        "`repro experiments`).  Unset/empty = serial; 0 or negative = "
        "all cores.  Overridden by an explicit jobs= argument or the "
        "CLI's --jobs."),
    EnvVar(
        "REPRO_SCALE", "default", "choice",
        "Experiment run scale: smoke | default | full (see "
        "repro.harness.runner.SCALES).  Overridden by --scale."),
    EnvVar(
        "REPRO_CACHE_DIR", None, "path",
        "Persistent result-store location.  Unset = "
        "$XDG_CACHE_HOME/repro-sim; a path = that directory; any of "
        "off/0/none/empty = caching disabled."),
    EnvVar(
        "REPRO_SANITIZE", "0", "flag",
        "Enable the microarchitectural invariant sanitizer "
        "(repro.core.sanitizer); default off.  CoreConfig(sanitize=True) "
        "enables it regardless."),
    EnvVar(
        "REPRO_FASTFORWARD", "1", "flag",
        "Event-driven fast-forward for the cycle loop (default on).  "
        "0 selects the per-cycle polling loop, the reference "
        "implementation fast-forward must stay bit-identical to."),
    EnvVar(
        "REPRO_LANES", "1", "flag",
        "Flat-lane (structure-of-arrays) engine for the cycle loop "
        "(default on).  0 selects the per-object reference pipeline; "
        "results are bit-identical either way."),
    EnvVar(
        "REPRO_WAREHOUSE_DB", None, "path",
        "Result-warehouse index location (a sqlite file).  Unset = "
        "<store dir>/warehouse.sqlite3 next to the content-addressed "
        "blobs; a path = that file; any of off/0/none/empty = the "
        "warehouse is disabled entirely (no ingest, no queries)."),
    EnvVar(
        "REPRO_WAREHOUSE_INGEST", "1", "flag",
        "Live warehouse ingest on ResultStore.put (default on): every "
        "stored result is indexed the moment it is written.  0 turns "
        "the ingest hook off — `repro warehouse rebuild` can always "
        "reconstruct the index from the blobs later.  Never affects "
        "record blobs or digests."),
    EnvVar(
        "REPRO_SERVICE_CRASH_ONCE", None, "path",
        "Test-only fault injection for the simulation service: a file "
        "path.  When the file exists, the next worker batch deletes it "
        "and kills its own process with os._exit(3), exercising the "
        "BrokenProcessPool retry path end to end.  Never set this in "
        "production."),
    EnvVar(
        "REPRO_FLEET_DIR", None, "path",
        "Root of the fleet's digest-prefix-sharded result store.  When "
        "set, get_store() returns a repro.fleet.ShardedStore over "
        "<dir>/shard-NN instead of a flat ResultStore: blobs live on "
        "exactly one shard (routed by digest prefix), warehouse index "
        "rows are replicated to every shard.  A deployment knob like "
        "REPRO_CACHE_DIR — never part of result digests."),
    EnvVar(
        "REPRO_FLEET_SHARDS", "4", "int",
        "Number of digest-prefix shards under REPRO_FLEET_DIR "
        "(default 4).  Must be consistent across every node mounting "
        "the same fleet dir; routing is digest-prefix modulo this "
        "count.  Never part of result digests."),
    EnvVar(
        "REPRO_FLEET_NODE", None, "str",
        "Worker-node name override for `repro worker` (default: "
        "host-pid derived).  A pure label for registration, leases, "
        "and /fleet/nodes — never part of result digests."),
    EnvVar(
        "REPRO_FLEET_HEARTBEAT_S", "2", "float",
        "Fleet heartbeat interval in seconds (default 2).  Workers "
        "POST /fleet/heartbeat this often; the coordinator declares a "
        "node dead after 3 missed intervals and re-queues its in-"
        "flight jobs.  Never part of result digests."),
    EnvVar(
        "REPRO_FLEET_LEASE_S", "60", "float",
        "Per-point lease budget in seconds (default 60).  A leased "
        "batch whose worker neither completes nor heartbeats within "
        "points * lease_s is revoked and re-queued exactly once.  "
        "Never part of result digests."),
    EnvVar(
        "REPRO_FLEET_CRASH_ONCE", None, "path",
        "Test-only fault injection for fleet workers: a file path.  "
        "When the file exists, the next leased batch deletes it and "
        "kills the worker process with os._exit(3) mid-batch, "
        "exercising lease expiry and exactly-once re-queue end to "
        "end.  Never set this in production."),
)}


def lookup(name: str) -> EnvVar:
    """The declaration for *name*; raises ``KeyError`` for unregistered
    variables so typos fail loudly instead of reading garbage."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"{name!r} is not a registered REPRO_* variable; declare it "
            f"in repro.envvars.REGISTRY first") from None


def raw(name: str) -> Optional[str]:
    """The variable's raw string value: the environment when set, else
    the registered default (which may be None)."""
    var = lookup(name)
    value = os.environ.get(name)
    return value if value is not None else var.default


def enabled(name: str) -> bool:
    """Resolve a ``kind="flag"`` variable to on/off via
    :data:`OFF_VALUES`."""
    var = lookup(name)
    if var.kind != "flag":
        raise ValueError(f"{name} is kind={var.kind!r}, not a flag")
    value = os.environ.get(name)
    if value is None:
        value = var.default or ""
    return value.strip().lower() not in OFF_VALUES


def names() -> Tuple[str, ...]:
    """Every registered variable name, sorted (for docs and tooling)."""
    return tuple(sorted(REGISTRY))
