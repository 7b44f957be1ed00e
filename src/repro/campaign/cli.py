"""The ``repro`` console entry point.

Subcommands::

    repro list [--tag TAG]               # every runnable campaign
    repro run NAME... [--quick|--full]   # execute campaigns (resumable)
    repro run --smoke                    # the CI-sized smoke campaign
    repro run NAME --shard I/N           # static shard of the cell matrix
    repro run NAME --worker              # lease-driven dynamic claiming
    repro merge NAME...                  # assemble + render once cells land
    repro render NAME... [--out DIR]     # stored results -> CSV/MD/JSON
    repro status [NAME...] [--json]      # cell-level progress per campaign
    repro monitor NAME [--summary|--json|--follow]   # timeline + anomalies
    repro dispatch NAME --backend B --hosts N [--dry-run]  # fleet execution
    repro sync push|pull --shared TARGET [--campaign NAME] # cache transport
    repro clean NAME... | --all          # drop campaign bookkeeping

``run`` is resumable by construction: every simulation persists in the
fingerprint-keyed disk cache the moment it finishes, so a rerun after an
interrupt re-simulates nothing that already completed.  Campaign manifests
and results live under ``.repro_cache/campaigns/``; rendered artifacts are
written under ``artifacts/<campaign>/`` by default.

Sharded execution splits one campaign across processes or hosts sharing a
cache directory (or syncing it, as the CI matrix does via artifacts):
``--shard i/N`` statically owns a deterministic slice of the cell matrix,
``--worker`` dynamically claims cells through TTL'd store leases (crashed
workers' cells are reclaimed after expiry), and ``merge`` assembles the
final artifacts once every cell is in the cache — bit-identical to a
single-host run.  ``status --json`` gives orchestrators machine-readable
done/leased/pending counts.

``dispatch`` runs one campaign across a fleet: it renders one job script
per host (``--dry-run`` to inspect without submitting), submits them to an
execution backend (``process_pool`` subprocesses, ``local`` — the same
backend one host at a time — or ``slurm``), polls the shared store until
every cell lands, then merges and renders exactly once — byte-identical
to a single-host run.  ``sync`` is the underlying cache transport:
batched, idempotent, checksum-verified push/pull of cache entries and
campaign lease/failure/journal state between a local ``.repro_cache/``
and a shared directory (mount a remote root; ``host:/path`` specs are
refused).  See :mod:`repro.campaign.fabric`.

``monitor`` reads the per-campaign event journals
(:mod:`repro.campaign.telemetry`) and renders the merged timeline —
per-worker roll-ups, cell-latency percentiles, a throughput sparkline and
deterministic anomaly flags (:mod:`repro.campaign.monitor`).  The exit code
is 1 when anomalies are present, so CI can gate on fleet health.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.campaign.fabric.backends import BACKEND_NAMES, BackendError
from repro.campaign.fabric.dispatch import (
    CLAIM_MODES, DispatchError, Dispatcher,
)
from repro.campaign.fabric.sync import (
    DEFAULT_BATCH_SIZE, CacheSync, SyncError,
)
from repro.campaign.health import (
    DEFAULT_BACKOFF_BASE, DEFAULT_MAX_ATTEMPTS, RetryPolicy,
)
from repro.campaign.registry import get_campaign, list_campaigns, register
from repro.campaign.render import RenderError, render_campaign
from repro.campaign.scheduler import (
    CampaignIncomplete, CampaignScheduler, ShardedExecutionError,
)
from repro.campaign.spec import CampaignSpec, SpecError
from repro.campaign.store import (
    DEFAULT_LEASE_TTL, CampaignStore, campaigns_root,
)
from repro.util import faults
from repro.util.sharding import ShardError, parse_shard


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {text})")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Declarative, resumable campaigns for the R3-DLA "
                    "reproduction (paper figures, tables and custom sweeps).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list runnable campaigns")
    p_list.add_argument("--tag", help="only campaigns carrying this tag")

    p_run = sub.add_parser("run", help="run campaigns (resumable)")
    p_run.add_argument("campaigns", nargs="*", metavar="NAME",
                       help="campaign names (see `repro list`)")
    mode = p_run.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true",
                      help="representative workload subset, short windows "
                           "(default)")
    mode.add_argument("--full", action="store_true",
                      help="every workload, longer windows")
    p_run.add_argument("--smoke", action="store_true",
                       help="run the CI-sized smoke campaign")
    p_run.add_argument("--spec", metavar="FILE",
                       help="also register campaign spec(s) from a JSON file")
    p_run.add_argument("--processes", type=int, default=None,
                       help="parallel worker processes (default: auto; "
                            "refused with --worker, which simulates one "
                            "claimed cell at a time)")
    p_run.add_argument("--force", action="store_true",
                       help="reset campaign bookkeeping before running")
    p_run.add_argument("--no-render", action="store_true",
                       help="skip writing artifacts after the run")
    p_run.add_argument("--out", default=None, metavar="DIR",
                       help="artifacts directory (default: artifacts/)")
    shard_mode = p_run.add_mutually_exclusive_group()
    shard_mode.add_argument("--shard", metavar="I/N", default=None,
                            help="simulate only static shard I of N "
                                 "(deterministic partition; finish with "
                                 "`repro merge`)")
    shard_mode.add_argument("--worker", action="store_true",
                            help="lease-driven worker: dynamically claim "
                                 "unfinished cells until the campaign "
                                 "completes")
    p_run.add_argument("--owner", default=None, metavar="ID",
                       help="worker identity for lease stamping "
                            "(default: <host>-<pid>)")
    p_run.add_argument("--ttl", type=float, default=DEFAULT_LEASE_TTL,
                       metavar="SECONDS",
                       help="lease time-to-live; a crashed worker's cells "
                            "are reclaimed after this long "
                            f"(default: {DEFAULT_LEASE_TTL:g})")
    p_run.add_argument("--poll", type=float, default=2.0, metavar="SECONDS",
                       help="worker poll interval while other workers hold "
                            "the remaining leases (default: 2)")
    p_run.add_argument("--batch", type=_positive_int, default=4,
                       metavar="CELLS",
                       help="cells a worker claims per lease batch "
                            "(default: 4)")
    p_run.add_argument("--retries", type=_positive_int,
                       default=DEFAULT_MAX_ATTEMPTS, metavar="N",
                       help="total attempts per failing cell before it is "
                            "poisoned (permanently failed, skipped by all "
                            f"workers; default: {DEFAULT_MAX_ATTEMPTS})")
    p_run.add_argument("--retry-backoff", type=float,
                       default=DEFAULT_BACKOFF_BASE, metavar="SECONDS",
                       help="base delay of the capped exponential retry "
                            "backoff (deterministically jittered; default: "
                            f"{DEFAULT_BACKOFF_BASE:g})")
    p_run.add_argument("--cell-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-cell wall-clock budget, in every mode "
                            "(plain, --shard, --worker): run each cell in "
                            "its own child process, at most --processes at "
                            "once, and convert overruns into retryable "
                            "failures (default: no budget)")
    p_run.add_argument("--faults", default=None, metavar="PLAN",
                       help="fault-injection plan for chaos testing (JSON "
                            "list or compact 'site:kind:k=v,...;...' — see "
                            "repro.util.faults); also exported to "
                            "subprocesses via the environment")

    p_merge = sub.add_parser(
        "merge",
        help="assemble + render artifacts once every cell has landed "
             "(fan-in for sharded runs; simulates nothing)",
    )
    p_merge.add_argument("campaigns", nargs="*", metavar="NAME")
    p_merge.add_argument("--spec", metavar="FILE",
                         help="register campaign spec(s) from a JSON file "
                              "first (required in a fresh process when the "
                              "sharded run used --spec)")
    merge_mode = p_merge.add_mutually_exclusive_group()
    merge_mode.add_argument("--quick", action="store_true",
                            help="merge the quick-mode matrix (default)")
    merge_mode.add_argument("--full", action="store_true",
                            help="merge the full-mode matrix")
    p_merge.add_argument("--out", default=None, metavar="DIR")
    p_merge.add_argument("--no-render", action="store_true",
                         help="assemble the stored result but skip artifacts")

    p_render = sub.add_parser("render", help="render stored results")
    p_render.add_argument("campaigns", nargs="+", metavar="NAME")
    p_render.add_argument("--out", default=None, metavar="DIR")

    p_status = sub.add_parser("status", help="campaign progress")
    p_status.add_argument("campaigns", nargs="*", metavar="NAME")
    p_status.add_argument("--json", action="store_true", dest="as_json",
                          help="machine-readable status (cell counts: "
                               "done/leased/pending) for CI and dispatchers")

    p_monitor = sub.add_parser(
        "monitor",
        help="merged event timeline, per-worker roll-ups and anomaly flags "
             "(exit 1 when anomalies are present)",
    )
    p_monitor.add_argument("campaign", metavar="NAME")
    p_monitor.add_argument("--summary", action="store_true",
                           help="one-shot ASCII dashboard (default unless "
                                "--json is given)")
    p_monitor.add_argument("--json", action="store_true", dest="as_json",
                           help="machine-readable timeline (stdout, or "
                                "--out FILE)")
    p_monitor.add_argument("--follow", action="store_true",
                           help="poll and re-render until the campaign "
                                "completes")
    p_monitor.add_argument("--interval", type=float, default=2.0,
                           metavar="SECONDS",
                           help="poll interval for --follow (default: 2)")
    p_monitor.add_argument("--out", default=None, metavar="FILE",
                           help="write the JSON timeline to FILE "
                                "(with --json)")

    p_dispatch = sub.add_parser(
        "dispatch",
        help="run one campaign across a fleet of hosts: render job "
             "scripts, submit to a backend, poll to convergence, merge",
    )
    p_dispatch.add_argument("campaign", metavar="NAME")
    p_dispatch.add_argument("--backend", default="process_pool",
                            choices=BACKEND_NAMES,
                            help="execution backend (default: process_pool)")
    p_dispatch.add_argument("--hosts", type=_positive_int, default=2,
                            metavar="N",
                            help="fleet size — one job script per host "
                                 "(default: 2; hosts > cells is fine, the "
                                 "surplus hosts converge on empty shards)")
    p_dispatch.add_argument("--claim", default="shard", choices=CLAIM_MODES,
                            help="cell-claiming mode: 'shard' = isolated "
                                 "per-host cache roots synced through the "
                                 "shared root, 'worker' = lease-driven "
                                 "claiming straight on the shared root "
                                 "(default: shard)")
    dispatch_mode = p_dispatch.add_mutually_exclusive_group()
    dispatch_mode.add_argument("--quick", action="store_true",
                               help="quick-mode matrix (default)")
    dispatch_mode.add_argument("--full", action="store_true",
                               help="full-mode matrix")
    p_dispatch.add_argument("--spec", metavar="FILE",
                            help="register campaign spec(s) from a JSON "
                                 "file first; forwarded to every host job")
    p_dispatch.add_argument("--shared", default=None, metavar="DIR",
                            help="shared cache root the fleet syncs "
                                 "through (default: $REPRO_CACHE_DIR or "
                                 ".repro_cache)")
    p_dispatch.add_argument("--dry-run", action="store_true",
                            help="render the job scripts and stop — "
                                 "nothing is submitted")
    p_dispatch.add_argument("--processes", type=_positive_int, default=None,
                            help="worker processes per shard host job "
                                 "(default: 1; refused with --claim "
                                 "worker)")
    p_dispatch.add_argument("--poll", type=float, default=1.0,
                            metavar="SECONDS",
                            help="fleet status poll interval (default: 1)")
    p_dispatch.add_argument("--ttl", type=float, default=DEFAULT_LEASE_TTL,
                            metavar="SECONDS",
                            help="lease TTL for worker-claim hosts "
                                 f"(default: {DEFAULT_LEASE_TTL:g})")
    p_dispatch.add_argument("--timeout", type=float, default=None,
                            metavar="SECONDS",
                            help="abort the dispatch if the fleet has not "
                                 "converged after this long (default: "
                                 "wait forever)")
    p_dispatch.add_argument("--out", default=None, metavar="DIR",
                            help="artifacts directory (default: artifacts/)")
    p_dispatch.add_argument("--no-render", action="store_true",
                            help="merge the stored result but skip "
                                 "artifacts")
    p_dispatch.add_argument("--json", action="store_true", dest="as_json",
                            help="print the dispatch plan as JSON "
                                 "(machine-readable; pairs with --dry-run)")

    p_sync = sub.add_parser(
        "sync",
        help="push/pull cache cells + campaign state between a local "
             "cache root and a shared target (batched, idempotent, "
             "checksum-verified)",
    )
    p_sync.add_argument("direction", choices=("push", "pull"),
                        help="push = local -> shared, pull = shared -> local")
    p_sync.add_argument("--shared", required=True, metavar="TARGET",
                        help="shared root directory (mount a remote root "
                             "and pass its directory)")
    p_sync.add_argument("--local", default=None, metavar="DIR",
                        help="local cache root (default: $REPRO_CACHE_DIR "
                             "or .repro_cache)")
    p_sync.add_argument("--campaign", default=None, metavar="NAME",
                        help="restrict cell entries to this campaign's "
                             "manifest and sync its lease/failure/journal "
                             "state alongside")
    p_sync.add_argument("--batch", type=_positive_int,
                        default=DEFAULT_BATCH_SIZE, metavar="N",
                        help="cell entries per transfer batch "
                             f"(default: {DEFAULT_BATCH_SIZE})")
    p_sync.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable transfer report")

    p_clean = sub.add_parser("clean", help="drop campaign bookkeeping "
                                           "(simulation cache is untouched)")
    p_clean.add_argument("campaigns", nargs="*", metavar="NAME")
    p_clean.add_argument("--all", action="store_true", dest="clean_all")
    return parser


# ---------------------------------------------------------------------------
def _cmd_list(args) -> int:
    specs = list_campaigns(tag=args.tag)
    if not specs:
        print("no campaigns registered")
        return 1
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        cells = f"{len(spec.variants)} variants" if spec.variants else "analysis"
        tags = f"  [{', '.join(spec.tags)}]" if spec.tags else ""
        print(f"{spec.name.ljust(width)}  {cells:>12}  {spec.title}{tags}")
    return 0


def _load_spec_file(path: str) -> List[CampaignSpec]:
    data = json.loads(Path(path).read_text())
    entries = data if isinstance(data, list) else [data]
    specs = [CampaignSpec.from_dict(entry) for entry in entries]
    for spec in specs:
        register(spec, replace=True)
    return specs


def _run_names(args) -> Optional[List[str]]:
    names = list(args.campaigns)
    if args.spec:
        loaded = _load_spec_file(args.spec)
        if not names:
            names = [spec.name for spec in loaded]
    if args.smoke:
        names.append("smoke")
    return names


def _activate_faults(plan_text: Optional[str]) -> None:
    """Parse and activate a chaos plan; export it for child processes.

    Cell child processes and any ``repro`` child the orchestrator spawns
    all pick the plan up from the environment, so one ``--faults`` flag
    covers the whole process tree.
    """
    if not plan_text:
        return
    plan = faults.FaultPlan.parse(plan_text)
    faults.activate(plan)
    os.environ[faults.FAULTS_ENV] = plan.to_json()


def _cmd_run(args) -> int:
    quick = not args.full
    names = _run_names(args)
    if not names:
        print("nothing to run: name at least one campaign, or use --smoke",
              file=sys.stderr)
        return 2
    if args.worker and args.processes is not None:
        print("--processes has no effect with --worker: a worker simulates "
              "its claimed cells one at a time", file=sys.stderr)
        return 2
    shard = None
    if args.shard is not None:
        shard = parse_shard(args.shard)
    _activate_faults(args.faults)
    policy = RetryPolicy(max_attempts=args.retries,
                         backoff_base=args.retry_backoff)
    exit_code = 0
    for name in names:
        spec = get_campaign(name)
        if spec is None:
            print(f"unknown campaign {name!r} (try `repro list`)", file=sys.stderr)
            return 2
        store = CampaignStore(spec.name)
        if args.force:
            store.clear()
        scheduler = CampaignScheduler(
            spec, quick=quick, processes=args.processes, store=store,
            progress=print, retry_policy=policy, cell_timeout=args.cell_timeout,
        )
        if shard is not None:
            summary = scheduler.run_shard(*shard)
        elif args.worker:
            summary = scheduler.run_worker(
                owner=args.owner, ttl=args.ttl, batch_size=args.batch,
                poll_seconds=args.poll,
            )
        else:
            summary = scheduler.run()
        # No artifacts from a shard run (rendering is `repro merge`'s job
        # once every shard has landed), from a worker that did not finalise
        # the campaign, or from an interrupted run.
        rendered = summary.get("finalized") if args.worker else shard is None
        if rendered and not summary.get("interrupted") and not args.no_render:
            for path in render_campaign(spec.name, store=store,
                                        out_dir=args.out):
                print(f"[{spec.name}] wrote {path}")
        if summary.get("cells_failed") or summary.get("interrupted"):
            # Artifacts may have been written (degraded), but CI — and
            # `repro dispatch` watching host jobs — must see the failure.
            exit_code = 1
    return exit_code


def _cmd_merge(args) -> int:
    quick = not args.full
    exit_code = 0
    names = list(args.campaigns)
    if args.spec:
        loaded = _load_spec_file(args.spec)
        if not names:
            names = [spec.name for spec in loaded]
    if not names:
        print("nothing to merge: name at least one campaign", file=sys.stderr)
        return 2
    for name in names:
        spec = get_campaign(name)
        if spec is None:
            print(f"unknown campaign {name!r} (try `repro list`)", file=sys.stderr)
            return 2
        store = CampaignStore(spec.name)
        scheduler = CampaignScheduler(spec, quick=quick, store=store,
                                      progress=print)
        try:
            summary = scheduler.finalize()
        except CampaignIncomplete as error:
            print(str(error), file=sys.stderr)
            return 1
        if not args.no_render:
            for path in render_campaign(spec.name, store=store, out_dir=args.out):
                print(f"[{spec.name}] wrote {path}")
        if summary.get("cells_failed"):
            # Degraded merge: artifacts exist but carry a health section.
            exit_code = 1
    return exit_code


def _cmd_render(args) -> int:
    for name in args.campaigns:
        try:
            for path in render_campaign(name, out_dir=args.out):
                print(f"[{name}] wrote {path}")
        except RenderError as error:
            print(str(error), file=sys.stderr)
            return 1
    return 0


def _known_store_names() -> List[str]:
    root = campaigns_root()
    if not root.is_dir():
        return []
    return sorted(p.name for p in root.iterdir() if p.is_dir())


def _cmd_status(args) -> int:
    names = list(args.campaigns) or _known_store_names()
    if not names:
        if args.as_json:
            print("{}")
        else:
            print("no campaigns have been run yet")
        return 0
    statuses = {name: CampaignStore(name).status() for name in names}
    # Non-zero failed cells flip the exit code so CI and dispatchers can
    # gate on campaign health without parsing the output.
    unhealthy = any(status.get("cells_failed") for status in statuses.values())
    if args.as_json:
        print(json.dumps(statuses, indent=2, sort_keys=True))
        return 1 if unhealthy else 0
    for name in names:
        status = statuses[name]
        if status.get("state") == "never run":
            print(f"{name}: never run")
            continue
        leased = status.get("cells_leased", 0)
        lease_note = f", {leased} leased" if leased else ""
        failed = status.get("cells_failed", 0)
        failed_note = f", {failed} FAILED" if failed else ""
        health_bits = []
        if status.get("retries"):
            health_bits.append(f"retries {status['retries']}")
        if status.get("quarantined"):
            health_bits.append(f"quarantined {status['quarantined']}")
        health_note = f" [{', '.join(health_bits)}]" if health_bits else ""
        print(
            f"{name}: {status['state']} ({status.get('mode')}); "
            f"cells {status.get('cells_done', 0)}/{status.get('cells_planned', 0)} "
            f"done{lease_note}, {status.get('cells_pending', 0)} "
            f"pending{failed_note}{health_note}; "
            f"updated {status.get('updated_at')}"
        )
    return 1 if unhealthy else 0


def _cmd_monitor(args) -> int:
    import time as _time

    from repro.campaign.monitor import build_timeline, render_summary

    store = CampaignStore(args.campaign)
    while True:
        timeline = build_timeline(store)
        show_summary = args.summary or args.follow or not args.as_json
        if show_summary:
            print(render_summary(timeline), end="")
        if not args.follow or timeline.get("state") in (
                "complete", "degraded"):
            break
        _time.sleep(args.interval)
        print("-" * 72)
    if args.as_json:
        text = json.dumps(timeline, indent=2, sort_keys=True) + "\n"
        if args.out:
            Path(args.out).write_text(text)
            print(f"[{args.campaign}] wrote {args.out}")
        else:
            print(text, end="")
    return 1 if timeline.get("anomalies") else 0


def _cmd_dispatch(args) -> int:
    if args.shared:
        # The shared root is env-derived everywhere (dispatcher, store,
        # status, merge), so --shared is exactly an env override.
        from repro.experiments.cache import CACHE_DIR_ENV
        os.environ[CACHE_DIR_ENV] = str(Path(args.shared).resolve())
    if args.spec:
        _load_spec_file(args.spec)
    spec = get_campaign(args.campaign)
    if spec is None:
        print(f"unknown campaign {args.campaign!r} (try `repro list`)",
              file=sys.stderr)
        return 2
    dispatcher = Dispatcher(
        spec, backend=args.backend, hosts=args.hosts, claim=args.claim,
        quick=not args.full, spec_file=args.spec, processes=args.processes,
        poll_seconds=args.poll, ttl=args.ttl, timeout=args.timeout,
    )
    plan = dispatcher.dispatch(dry_run=args.dry_run,
                               no_render=args.no_render, out_dir=args.out)
    if args.as_json:
        print(json.dumps(plan.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_sync(args) -> int:
    sync = CacheSync(local_root=args.local, target=args.shared,
                     batch_size=args.batch)
    if args.direction == "push":
        report = sync.push(campaign=args.campaign)
    else:
        report = sync.pull(campaign=args.campaign)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0


def _cmd_clean(args) -> int:
    names = list(args.campaigns)
    if args.clean_all:
        names = _known_store_names()
    if not names:
        print("nothing to clean: name campaigns or pass --all", file=sys.stderr)
        return 2
    for name in names:
        removed = CampaignStore(name).clear()
        print(f"{name}: removed {removed} file(s)")
    return 0


# ---------------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "merge":
            return _cmd_merge(args)
        if args.command == "render":
            return _cmd_render(args)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "monitor":
            return _cmd_monitor(args)
        if args.command == "dispatch":
            return _cmd_dispatch(args)
        if args.command == "sync":
            return _cmd_sync(args)
        if args.command == "clean":
            return _cmd_clean(args)
    except (SpecError, ShardError) as error:
        print(f"spec error: {error}", file=sys.stderr)
        return 2
    except ShardedExecutionError as error:
        print(str(error), file=sys.stderr)
        return 2
    except CampaignIncomplete as error:
        print(str(error), file=sys.stderr)
        return 1
    except (BackendError, DispatchError, SyncError) as error:
        print(f"dispatch error: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("\ninterrupted — rerun to resume (finished cells are cached)",
              file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
