#!/usr/bin/env python3
"""End-to-end smoke gate for the network front-end (CTest `server_smoke`).

Boots flit-server on an ephemeral loopback port and drives it with
flit_loadgen, asserting the acceptance criteria of the network subsystem:

  1. Hashed layout, mix A: a scalar baseline (1 conn x pipeline 1) and a
     pipelined run (2 conns x pipeline 16) both complete with ZERO
     misses / mismatches / errors, and the pipelined run's pfences/op is
     measurably below the scalar run's — fence coalescing driven by real
     pipelined connections, not synthetic batch sweeps.
  2. Ordered layout, mix E: verified SCAN traffic (ascending keys, intact
     payloads) over the wire.
  3. Clean shutdown both times: an inline-protocol SHUTDOWN (exercising
     the telnet-style framing) for the hashed server, the loadgen's
     --shutdown for the ordered one; both servers must exit 0.
  4. Durability plumbing on a file-backed store: --durability=always must
     checkpoint with every write batch (STATS checkpoints delta grows
     with traffic) and --durability=everysec --flush-ms=50 must
     checkpoint on its timer even while idle — both asserted via STATS
     deltas, so a silently-dead flusher or a disconnected
     note_write_commit() fails the gate.
  5. Overload protection: with --max-conns=6 the seventh connection is
     shed (accepted then immediately closed), held-idle connections are
     reaped by --idle-timeout-ms, both visible in STATS
     (shed_conns/idle_timeouts), and a --chaos loadgen round (abandoned
     bursts, half-closes, torn frames) finishes with zero verification
     failures against the same server. A chaos connection the server
     reaped as idle is reconnected by the loadgen and must be covered by
     the STATS idle_timeouts delta.
  6. (--failpoints builds only) Fault injection over the wire: with the
     server booted under --failpoints=pool.alloc=prob:0.5, SETs fail
     per-request with -ERR while GETs of successfully stored keys still
     verify, STATS injected_faults grows, and the server still shuts
     down cleanly.

Usage: server_smoke.py --server PATH --loadgen PATH [--seconds F]
                       [--failpoints]
"""

import argparse
import json
import os
import re
import socket
import subprocess
import sys
import tempfile
import time

LISTEN_RE = re.compile(r"flit-server: listening on ([0-9.]+):(\d+)")

# Pipelined pfences/op must land below this fraction of scalar: with
# depth-16 bursts collapsing into multi-ops the true ratio is ~1/8 or
# better, so 0.6 is a loose-but-meaningful gate that tolerates CI noise.
COALESCE_RATIO = 0.6


# Every server this run started; main() kills the survivors on any exit,
# so a failed round never leaves a server running.
STARTED = []


def start_server(args, extra, env=None):
    cmd = [args.server, "--port=0"] + extra
    child_env = dict(os.environ, **env) if env else None
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            env=child_env)
    STARTED.append(proc)
    deadline = time.time() + 30
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        sys.stdout.write(line)
        m = LISTEN_RE.search(line)
        if m:
            return proc, m.group(1), int(m.group(2))
    proc.kill()
    raise SystemExit("server_smoke: server never reported its port")


def run_loadgen(args, host, port, extra):
    cmd = [args.loadgen, f"--host={host}", f"--port={port}",
           f"--seconds={args.seconds}"] + extra
    print("server_smoke: $", " ".join(cmd), flush=True)
    res = subprocess.run(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True)
    sys.stdout.write(res.stdout)
    if res.returncode != 0:
        raise SystemExit(f"server_smoke: loadgen failed (exit "
                         f"{res.returncode})")
    with open("BENCH_flit_loadgen.json") as f:
        return json.load(f)["rows"]


def inline_shutdown(host, port):
    """SHUTDOWN via the telnet-style inline framing (no RESP arrays):
    exercises the second parser path end to end."""
    with socket.create_connection((host, port), timeout=10) as s:
        s.sendall(b"SHUTDOWN\r\n")
        reply = s.recv(64)
    if not reply.startswith(b"+OK"):
        raise SystemExit(f"server_smoke: inline SHUTDOWN got {reply!r}")


def inline_stats(host, port):
    """Fetch STATS via the inline framing and parse its k=v fields."""
    with socket.create_connection((host, port), timeout=10) as s:
        s.sendall(b"STATS\r\n")
        buf = b""
        while b"\r\n" not in buf:
            buf += s.recv(4096)
        if not buf.startswith(b"$"):
            raise SystemExit(f"server_smoke: STATS got {buf!r}")
        header, _, rest = buf.partition(b"\r\n")
        want = int(header[1:]) + 2  # payload + trailing CRLF
        while len(rest) < want:
            rest += s.recv(4096)
    fields = {}
    for tok in rest[:want - 2].decode().split():
        if "=" in tok:
            k, _, v = tok.partition("=")
            fields[k] = int(v) if v.isdigit() else v
    return fields


def inline_roundtrip(sock, line):
    """Send one inline command, return the reply's first line (statuses
    and errors whole; bulk replies return the $N header — enough to
    classify the outcome)."""
    sock.sendall(line.encode() + b"\r\n")
    buf = b""
    while b"\r\n" not in buf:
        chunk = sock.recv(4096)
        if not chunk:
            return ""
        buf += chunk
    header = buf.partition(b"\r\n")[0].decode()
    if header.startswith("$") and not header.startswith("$-1"):
        want = int(header[1:]) + 2
        rest = buf.partition(b"\r\n")[2]
        while len(rest) < want:
            rest += sock.recv(4096)
    return header


def wait_exit(proc, what):
    try:
        code = proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise SystemExit(f"server_smoke: {what} did not exit after SHUTDOWN")
    for line in proc.stdout:
        sys.stdout.write(line)
    if code != 0:
        raise SystemExit(f"server_smoke: {what} exited {code}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--server", required=True)
    ap.add_argument("--loadgen", required=True)
    ap.add_argument("--seconds", type=float, default=0.3,
                    help="measurement time per loadgen point")
    ap.add_argument("--failpoints", action="store_true",
                    help="server was built with FLIT_FAILPOINTS=ON: also "
                         "run the fault-injection round")
    args = ap.parse_args()
    try:
        return run_rounds(args)
    finally:
        for proc in STARTED:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def run_rounds(args):
    # --- round 1: hashed layout, scalar vs pipelined fence coalescing ----
    proc, host, port = start_server(args, ["--layout=hashed",
                                           "--workers=2", "--keys=4000"])
    scalar = run_loadgen(args, host, port,
                         ["--mix=A", "--keys=4000", "--conns=1",
                          "--pipeline=1"])[0]
    piped = run_loadgen(args, host, port,
                        ["--mix=A", "--keys=4000", "--conns=2",
                         "--pipeline=16", "--no-load"])[0]
    inline_shutdown(host, port)
    wait_exit(proc, "hashed server")

    for name, row in (("scalar", scalar), ("pipelined", piped)):
        bad = row["misses"] + row["mismatches"] + row["errors"]
        if bad:
            raise SystemExit(f"server_smoke: {name} run had {bad} "
                             f"verification failures")
    if scalar["pfences_per_op"] <= 0:
        raise SystemExit("server_smoke: scalar run recorded no pfences "
                         "(STATS plumbing broken?)")
    ratio = piped["pfences_per_op"] / scalar["pfences_per_op"]
    print(f"server_smoke: pfences/op scalar={scalar['pfences_per_op']:.3f} "
          f"pipelined={piped['pfences_per_op']:.3f} ratio={ratio:.3f} "
          f"(gate < {COALESCE_RATIO})")
    if ratio >= COALESCE_RATIO:
        raise SystemExit("server_smoke: pipelining did not coalesce fences")

    # --- round 2: ordered layout, verified SCAN + loadgen shutdown -------
    proc, host, port = start_server(args, ["--layout=ordered",
                                           "--workers=2", "--keys=4000"])
    scans = run_loadgen(args, host, port,
                        ["--mix=E", "--keys=4000", "--conns=2",
                         "--pipeline=4", "--shutdown"])[0]
    wait_exit(proc, "ordered server")
    bad = scans["misses"] + scans["mismatches"] + scans["errors"]
    if bad:
        raise SystemExit(f"server_smoke: scan run had {bad} verification "
                         f"failures")
    if scans["layout"] != "ordered":
        raise SystemExit("server_smoke: expected the ordered layout")

    # --- round 3: durability modes checkpoint on a file-backed store -----
    with tempfile.TemporaryDirectory(prefix="flit_server_smoke_") as tmp:
        # always: every write batch checkpoints, so the counter must grow
        # roughly with traffic (>= 2 guards against a single close-time
        # checkpoint masquerading as per-batch durability).
        img = os.path.join(tmp, "always.img")
        proc, host, port = start_server(
            args, ["--layout=hashed", "--workers=2", "--keys=4000",
                   f"--file={img}", "--durability=always",
                   "--capacity-mb=128"])
        before = inline_stats(host, port).get("checkpoints")
        if before is None:
            raise SystemExit("server_smoke: STATS lacks a checkpoints field")
        run_loadgen(args, host, port,
                    ["--mix=A", "--keys=4000", "--conns=2", "--pipeline=8"])
        delta = inline_stats(host, port)["checkpoints"] - before
        inline_shutdown(host, port)
        wait_exit(proc, "always-durability server")
        print(f"server_smoke: durability=always checkpoints delta={delta}")
        if delta < 2:
            raise SystemExit("server_smoke: --durability=always did not "
                             "checkpoint with traffic")

        # everysec (shrunk to 50ms): the flusher must checkpoint on its
        # timer, no traffic required beyond the initial load.
        img = os.path.join(tmp, "everysec.img")
        proc, host, port = start_server(
            args, ["--layout=hashed", "--workers=2", "--keys=4000",
                   f"--file={img}", "--durability=everysec",
                   "--flush-ms=50", "--capacity-mb=128"])
        before = inline_stats(host, port)["checkpoints"]
        time.sleep(0.5)
        delta = inline_stats(host, port)["checkpoints"] - before
        inline_shutdown(host, port)
        wait_exit(proc, "everysec-durability server")
        print(f"server_smoke: durability=everysec checkpoints delta={delta}")
        if delta < 2:
            raise SystemExit("server_smoke: the everysec flusher is not "
                             "checkpointing on its interval")

    # --- round 4: overload protection — shed, idle-reap, chaos traffic ---
    proc, host, port = start_server(
        args, ["--layout=hashed", "--workers=2", "--keys=4000",
               "--max-conns=6", "--idle-timeout-ms=200"])
    held = [socket.create_connection((host, port), timeout=10)
            for _ in range(6)]
    # The seventh connection must be shed: accepted, then closed before
    # any request is served (a clean EOF or an RST both qualify).
    with socket.create_connection((host, port), timeout=10) as extra_conn:
        extra_conn.settimeout(10)
        try:
            shed_reply = inline_roundtrip(extra_conn, "STATS")
        except (ConnectionResetError, BrokenPipeError):
            shed_reply = ""
    if shed_reply != "":
        raise SystemExit(f"server_smoke: connection over --max-conns was "
                         f"served ({shed_reply!r}), not shed")
    time.sleep(0.8)  # idle wheel (200ms timeout) reaps the held six
    for sock in held:
        sock.close()
    fields = inline_stats(host, port)
    print(f"server_smoke: overload shed_conns={fields.get('shed_conns')} "
          f"idle_timeouts={fields.get('idle_timeouts')} "
          f"open_conns={fields.get('open_conns')}")
    if fields.get("shed_conns", 0) < 1:
        raise SystemExit("server_smoke: shed connection not counted")
    if fields.get("idle_timeouts", 0) < 1:
        raise SystemExit("server_smoke: idle connections were never reaped")
    # Under load a chaos connection can sit idle past the 200ms timeout and
    # be reaped; the loadgen reconnects and reports it as "reaped". Every
    # such close must be one the server counted as an idle timeout.
    chaos = run_loadgen(args, host, port,
                        ["--mix=A", "--keys=4000", "--conns=2",
                         "--pipeline=8", "--chaos"])[0]
    reaps = (inline_stats(host, port)["idle_timeouts"] -
             fields["idle_timeouts"])
    inline_shutdown(host, port)
    wait_exit(proc, "overload server")
    bad = chaos["misses"] + chaos["mismatches"] + chaos["errors"]
    if bad:
        raise SystemExit(f"server_smoke: chaos run had {bad} verification "
                         f"failures")
    if chaos.get("chaos_events", 0) < 1:
        raise SystemExit("server_smoke: --chaos never fired")
    print(f"server_smoke: chaos_events={chaos['chaos_events']} survived, "
          f"reaped={chaos['reaped']} (idle_timeouts delta {reaps})")
    if chaos["reaped"] > reaps:
        raise SystemExit("server_smoke: the server closed chaos connections "
                         "it did not count as idle timeouts")

    # --- round 5: per-request fault injection (failpoint builds only) ----
    if args.failpoints:
        proc, host, port = start_server(
            args, ["--layout=hashed", "--workers=2", "--keys=4000",
                   "--failpoints=pool.alloc=prob:0.5"],
            env={"FLIT_FAILPOINTS_SEED": "7"})
        with socket.create_connection((host, port), timeout=10) as s:
            s.settimeout(10)
            ok = err = 0
            stored = []
            for i in range(9000, 9040):
                reply = inline_roundtrip(s, f"SET {i} payload{i}")
                if reply.startswith("+OK"):
                    ok += 1
                    stored.append(i)
                elif reply.startswith("-ERR"):
                    err += 1
                else:
                    raise SystemExit(f"server_smoke: SET got {reply!r}")
            for i in stored[:5]:
                reply = inline_roundtrip(s, f"GET {i}")
                if not reply.startswith("$"):
                    raise SystemExit(f"server_smoke: GET after injection "
                                     f"got {reply!r}")
        fields = inline_stats(host, port)
        print(f"server_smoke: injection ok={ok} err={err} "
              f"injected_faults={fields.get('injected_faults')}")
        if ok < 1 or err < 1:
            raise SystemExit("server_smoke: prob:0.5 injection should "
                             "produce both outcomes over 40 SETs")
        if fields.get("injected_faults", 0) < err:
            raise SystemExit("server_smoke: STATS injected_faults did not "
                             "count the injected failures")
        inline_shutdown(host, port)
        wait_exit(proc, "injection server")

    print("server_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
