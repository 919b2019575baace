"""Drive a running update service with perfbench's op lists; check every answer.

From the repository root, while ``repro.cli serve`` listens on SOCKET:
``python .github/scripts/served_smoke.py SOCKET``.  mixed_small and repair_undo
(seed 0) replay concurrently, one closed loop per connection, each answer and
final state checked against perfbench's offline replay.  Exit 1 on any failed
request, any mismatch, fewer than 4 connections or no ops.
"""

import asyncio
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
from perfbench import check, plan as plan_mod, served  # noqa: E402


async def drive(socket_path, loops):
    conns = [served._Connection(*await asyncio.open_unix_connection(
        socket_path, limit=served.LINE_LIMIT)) for _ in loops]
    hello = plan_mod.encode({"id": "hello", "op": "hello"})
    for conn in conns:
        if json.loads(await conn.call(hello)).get("protocol") != 1:
            raise SystemExit("served_smoke: the service does not speak protocol 1")
    bookkeeping, pairs = [], list(zip(conns, loops))
    await asyncio.gather(*(served._open_sessions(c, s, bookkeeping) for c, s in pairs))
    timed = await asyncio.gather(
        *(served._replay(c, served._timed_lines(s)[0]) for c, s in pairs))
    states = await asyncio.gather(*(served._close_sessions(c, s, bookkeeping) for c, s in pairs))
    await asyncio.gather(*(conn.close() for conn in conns))
    return [responses for _, responses in timed], states, bookkeeping


def main(socket_path):
    spec = plan_mod.load_spec()
    plans = [plan_mod.build_plan(name, 0, spec) for name in ("mixed_small", "repair_undo")]
    responses, states, bookkeeping = asyncio.run(
        drive(socket_path, [sessions for plan in plans for sessions in plan.connections]))
    problems, first = [], 0
    for plan in plans:
        last = first + len(plan.connections)
        backend = spec["workloads"][plan.workload]["reference"]
        found = check.check_run(plan, check.expect_plan(plan, backend),
                                [(responses[first:last], states[first:last])], backend)
        problems += [f"{plan.workload} {problem}" for problem in found]
        first = last
    ops = sum(map(len, responses))
    lines = bookkeeping + [line for conn in responses for line in conn]
    failed = sum(not json.loads(line).get("ok") for line in lines)
    for problem in problems[:20]:
        print(f"served_smoke: MISMATCH {problem}", file=sys.stderr)
    print(f"served_smoke: {len(responses)} connections, {ops} requests, {failed} failed, "
          f"{len(problems)} mismatches")
    return 1 if problems or failed or len(responses) < 4 or ops == 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
