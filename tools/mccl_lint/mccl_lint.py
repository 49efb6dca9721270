#!/usr/bin/env python3
"""mccl-lint: determinism, hot-path and protocol-correctness lint for mccl.

Two layers:

  cppmodel.py   a lightweight C++ token/scope parser (stdlib-only) that
                builds a per-translation-unit model of the source: scope
                tree, function headers, call sites with receiver identity,
                enclosing statements, control-flow conditions, and
                `// mccl: <tag>` annotations.
  mccl_lint.py  rule passes over that model, in two groups.

`lint` group — determinism / hot-path rules (PR 5/9):

  no-wallclock       No wall-clock / libc randomness / environment reads in
                     the simulation core (src/sim, src/fabric, src/rdma,
                     src/coll, src/inc, src/sched). All time comes from
                     sim::Engine, all randomness from common/rng.hpp.
  no-unordered-iter  No range-for over std::unordered_map/set declared in
                     the same file: iteration order is implementation-
                     defined and feeds sim-visible decisions. Point lookups
                     are fine.
  no-pointer-key     No associative container keyed by a raw pointer type:
                     pointer values differ across runs, so any ordered or
                     hashed traversal over them is nondeterministic.
  no-shared-packet   No shared_ptr<Packet>: packets are pooled and must be
                     held through fabric::PacketRef (intrusive refcount, no
                     atomic ops, recycling on release).
  no-hot-alloc       No heap-allocation keywords (new, make_unique,
                     make_shared, malloc/calloc/realloc, std::function
                     declarations) inside regions marked
                     `// mccl-lint: begin-hot <name>` ... `// mccl-lint:
                     end-hot` -- the engine-dispatch and per-packet paths.
  no-datapath-deque  No std::deque in the datapath layers (src/sim,
                     src/rdma, src/exec, src/fabric): every FIFO a packet
                     or completion crosses is a common/ring.hpp Ring, one
                     contiguous buffer instead of a malloc per 512-byte
                     block. Cold build-time queues carry an allow().
  capture-budget     Lambda capture lists passed to Engine::schedule /
                     schedule_at stay within the 64-byte inline-callback
                     budget (<= 8 captured entities at ~8 bytes each);
                     larger captures silently fall back to heap allocation.
  layer-order        A file under src/<layer>/ includes only its own layer
                     or lower ones, in the order of LAYERS (common < debug
                     < telemetry < sim < fabric < rdma < exec < inc < model
                     < coll < sched): a lower layer never reaches up.

`verify` group — protocol-usage correctness (PARCOACH-style, PR 10). The
paper's bandwidth-optimal guarantee holds only when every rank issues
matching collectives over a correctly-managed communicator; these rules
machine-check the Communicator/OpBase/OpResult API contract across src/,
examples/, tests/ and bench/:

  coll-matching      Every started collective (start_broadcast /
                     start_allgather / start_reduce_scatter / start_barrier)
                     bound to a named OpBase has a reachable wait in its
                     enclosing function: `op.done()` polling, a
                     `Communicator::finish(op)`, or a `set_on_done`
                     completion hook. A started-and-discarded collective
                     (no handle at all) is an error. Collectives issued
                     under rank-dependent control flow (any enclosing
                     if/for/while/switch condition mentioning `rank` in
                     driver code) get the PARCOACH divergence warning: all
                     ranks of a communicator must issue the same collective
                     sequence.
  comm-lifecycle     The communicator state machine (create ->
                     align_symmetric_heap -> start -> wait -> shrink/retry
                     -> retire) is checked: retiring a communicator
                     (std::move of a *comm* expression, .reset(), or
                     = nullptr) must carry a `// mccl: comm-retire <why>`
                     annotation; any collective use through the retired
                     expression before a reassignment is start-after-retire.
                     OpBase reuse past terminal state (`op.start()` twice,
                     `finish(op)` twice in one function) is an error.
  unchecked-result   A named OpResult whose status is never consulted
                     (.status / .failed / .data_verified / .error /
                     .missing_blocks / .watchdog_fired / .crashed_ranks,
                     or escaping by return / function argument) silently
                     swallows kPartial / kFailed. Same for a start_*-bound
                     OpBase that is waited on but never status-checked
                     (result() / verify() / finish() / set_on_done), and
                     for a blocking collective whose OpResult is discarded
                     outright.
  lambda-escape      src/ only. By-reference lambda captures passed to
                     Engine::schedule / schedule_at / post escape into
                     engine callbacks that outlive the enclosing frame --
                     capture by value (or `this`) instead. (Tests and
                     examples pump the engine in the same frame, so the
                     rule is scoped to the library.)

Annotations (`// mccl: <tag> [reason]`, same line or the line above):
  comm-retire    on a communicator retirement site: documented hand-off

Suppression: append `// mccl-lint: allow(<rule>[,<rule>...]) <reason>` on
the offending line or the line directly above it. A reason is required.

Usage:
  mccl_lint.py --root <repo-root>     scan the tree; exit 1 on violations
  mccl_lint.py --self-test            every rule must trip on its seeded
                                      violation, stay quiet on clean code,
                                      and fall silent under allow();
                                      exit 1 otherwise
  --group {all,lint,verify}           restrict the scan to one rule group
  --json <path>                       write violations as JSON
  --sarif <path>                      write SARIF 2.1.0 for CI annotations

Exit codes: 0 clean, 1 violations / self-test failure, 2 usage error.

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cppmodel  # noqa: E402
from cppmodel import strip_comments_and_strings  # noqa: E402,F401

CORE_DIRS = ("src/sim", "src/fabric", "src/rdma", "src/coll", "src/inc",
             "src/sched")
ALL_SRC = ("src",)
DATAPATH_DIRS = ("src/sim", "src/rdma", "src/exec", "src/fabric")
VERIFY_DIRS = ("src", "examples", "tests", "bench")
# Rank-divergence is checked in driver code only: protocol internals
# legitimately branch on rank (roots send, leaves receive).
DRIVER_DIRS = ("examples", "tests", "bench", "src/sched")
SCAN_DIRS = ("src", "examples", "tests", "bench")

ALLOW_RE = re.compile(r"//\s*mccl-lint:\s*allow\(([\w\-, ]+)\)\s*\S")
BEGIN_HOT_RE = re.compile(r"//\s*mccl-lint:\s*begin-hot\s+[\w\-]+")
END_HOT_RE = re.compile(r"//\s*mccl-lint:\s*end-hot")

WALLCLOCK_PATTERNS = [
    (re.compile(r"std::chrono::(system|steady|high_resolution)_clock"),
     "wall-clock read (use sim::Engine::now())"),
    (re.compile(r"\b(gettimeofday|clock_gettime|timespec_get)\b"),
     "wall-clock read (use sim::Engine::now())"),
    (re.compile(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)"),
     "wall-clock read (use sim::Engine::now())"),
    (re.compile(r"\b(std::)?(rand|srand|rand_r|drand48)\s*\("),
     "libc randomness (use common/rng.hpp)"),
    (re.compile(r"\brandom_device\b"),
     "nondeterministic seed source (use common/rng.hpp)"),
    (re.compile(r"\b(getenv|secure_getenv)\s*\("),
     "environment read (pass configuration explicitly)"),
]

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set)\b[^;{}()]*?\b([A-Za-z_]\w*)\s*;")
POINTER_KEY_RE = re.compile(
    r"std::(?:unordered_)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*")
SHARED_PACKET_RE = re.compile(
    r"(?:shared_ptr|make_shared)\s*<\s*(?:mccl::)?(?:fabric::)?Packet\s*>")
HOT_ALLOC_RE = re.compile(
    r"\bnew\b|\bmake_unique\b|\bmake_shared\b"
    r"|\b(?:malloc|calloc|realloc)\s*\(|std::function\s*<")
SCHEDULE_RE = re.compile(r"\bschedule(_at)?\s*\(")
DEQUE_RE = re.compile(r"\bstd::deque\s*<")
LAYERS = ("common", "debug", "telemetry", "sim", "fabric", "rdma", "exec",
          "inc", "model", "coll", "sched")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"src/(\w+)/')

CAPTURE_BUDGET = 8  # entities * 8 bytes = the 64-byte inline budget

# --- verify-group vocabulary -------------------------------------------------

COLLECTIVE_STARTS = ("start_broadcast", "start_allgather",
                     "start_reduce_scatter", "start_barrier")
BLOCKING_COLLS = ("broadcast", "allgather", "reduce_scatter", "barrier")
# Methods on OpResult that constitute a status check.
RESULT_STATUS_MEMBERS = ("status", "failed", "data_verified", "error",
                         "missing_blocks", "watchdog_fired", "crashed_ranks")
# Methods on OpBase that constitute a status check: the settled OpResult,
# or the reference verify().
OP_STATUS_METHODS = ("result", "verify")

OPBASE_BIND_RE = re.compile(
    r"\b(?:(?:coll::)?OpBase|auto)\s*&\s*([A-Za-z_]\w*)\s*=")
OPRESULT_BIND_RE = re.compile(
    r"\b(?:const\s+)?(?:coll::)?OpResult\s+([A-Za-z_]\w*)\s*=")
# A *comm* postfix expression: identifiers/indices/arrows whose final
# component names a communicator (comm, comm_, hp_comm, ...).
COMM_EXPR = r"(?:[\w\]\[]|->|\.)*?\w*comm_?"
COMM_MOVE_RE = re.compile(r"std::move\s*\(\s*(%s)\s*\)" % COMM_EXPR)
COMM_RESET_RE = re.compile(
    r"\b(%s)\s*(?:\.|->)\s*reset\s*\(\s*\)|\b(%s)\s*=\s*nullptr" %
    (COMM_EXPR, COMM_EXPR))
OP_START_RE = re.compile(
    r"((?:[\w\]\[]|->|\.)+?)\s*(?:\.|->)\s*start\s*\(\s*\)")
FINISH_RE = re.compile(r"(?:\.|->)\s*finish\s*\(\s*\*?\s*([A-Za-z_]\w*)\s*\)")


class FileContext:
    def __init__(self, path, text):
        self.path = path
        self.raw_lines = text.splitlines()
        self.code = strip_comments_and_strings(text)
        self.code_lines = self.code.splitlines()
        self._model = None
        self.raw_text = text
        # allowed[lineno] = set of rule ids suppressed on that line
        # (1-indexed; an allow() covers its own line and the next).
        self.allowed = {}
        self.hot = [False] * (len(self.raw_lines) + 2)
        in_hot = False
        for idx, line in enumerate(self.raw_lines, start=1):
            m = ALLOW_RE.search(line)
            if m:
                rules = {r.strip() for r in m.group(1).split(",")}
                self.allowed.setdefault(idx, set()).update(rules)
                self.allowed.setdefault(idx + 1, set()).update(rules)
            if BEGIN_HOT_RE.search(line):
                in_hot = True
            elif END_HOT_RE.search(line):
                in_hot = False
            self.hot[idx] = in_hot

    @property
    def model(self):
        """The cppmodel scope/call model, built on first use."""
        if self._model is None:
            self._model = cppmodel.Model(self.raw_text, code=self.code)
        return self._model

    def suppressed(self, lineno, rule):
        return rule in self.allowed.get(lineno, set())


class Violation:
    def __init__(self, path, lineno, rule, message):
        self.path = path
        self.lineno = lineno
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.lineno, self.rule,
                                   self.message)


def emit(violations, ctx, lineno, rule, message):
    if not ctx.suppressed(lineno, rule):
        violations.append(Violation(ctx.path, lineno, rule, message))


# --- lint group --------------------------------------------------------------


def check_wallclock(ctx, violations):
    for idx, line in enumerate(ctx.code_lines, start=1):
        for pattern, why in WALLCLOCK_PATTERNS:
            if pattern.search(line):
                emit(violations, ctx, idx, "no-wallclock", why)


def check_unordered_iter(ctx, violations):
    names = set(UNORDERED_DECL_RE.findall(ctx.code))
    if not names:
        return
    iter_re = re.compile(
        r"for\s*\([^)]*:\s*(?:[\w]+\s*(?:\.|->)\s*)*(%s)\s*\)" %
        "|".join(re.escape(nm) for nm in sorted(names)))
    for idx, line in enumerate(ctx.code_lines, start=1):
        m = iter_re.search(line)
        if m:
            emit(violations, ctx, idx, "no-unordered-iter",
                 "iteration over unordered container '%s' "
                 "(implementation-defined order)" % m.group(1))


def check_pointer_key(ctx, violations):
    for idx, line in enumerate(ctx.code_lines, start=1):
        if POINTER_KEY_RE.search(line):
            emit(violations, ctx, idx, "no-pointer-key",
                 "associative container keyed by a raw pointer "
                 "(addresses vary across runs)")


def check_shared_packet(ctx, violations):
    for idx, line in enumerate(ctx.code_lines, start=1):
        if SHARED_PACKET_RE.search(line):
            emit(violations, ctx, idx, "no-shared-packet",
                 "shared_ptr<Packet> bypasses the packet pool; hold packets "
                 "through fabric::PacketRef")


def check_hot_alloc(ctx, violations):
    for idx, line in enumerate(ctx.code_lines, start=1):
        if not ctx.hot[idx]:
            continue
        m = HOT_ALLOC_RE.search(line)
        if m:
            emit(violations, ctx, idx, "no-hot-alloc",
                 "heap allocation ('%s') inside a begin-hot region" %
                 m.group(0).strip())


def check_datapath_deque(ctx, violations):
    for idx, line in enumerate(ctx.code_lines, start=1):
        if DEQUE_RE.search(line):
            emit(violations, ctx, idx, "no-datapath-deque",
                 "std::deque in a datapath layer (use common/ring.hpp Ring)")


def check_layer_order(ctx, violations):
    parts = ctx.path.replace(os.sep, "/").split("/")
    if len(parts) < 3 or parts[1] not in LAYERS:
        return
    own = LAYERS.index(parts[1])
    for idx, line in enumerate(ctx.raw_lines, start=1):
        # The stripped line keeps the directive only outside comments.
        if not ctx.code_lines[idx - 1].lstrip().startswith("#"):
            continue
        m = INCLUDE_RE.match(line)
        if m and m.group(1) in LAYERS and LAYERS.index(m.group(1)) > own:
            emit(violations, ctx, idx, "layer-order",
                 "src/%s includes the higher layer src/%s" %
                 (parts[1], m.group(1)))


def check_capture_budget(ctx, violations):
    code = ctx.code
    for m in SCHEDULE_RE.finditer(code):
        window = code[m.end():m.end() + 400]
        lb = window.find("[")
        # The lambda may be the first argument or follow a simple time
        # expression (schedule(delay, [..] {...})); give up when anything
        # structural sits between the call and the capture list.
        if lb < 0 or any(ch in window[:lb] for ch in ";{}()"):
            continue
        rb = window.find("]", lb)
        if rb < 0:
            continue
        captures = [c.strip() for c in window[lb + 1:rb].split(",")
                    if c.strip()]
        if len(captures) > CAPTURE_BUDGET:
            lineno = code.count("\n", 0, m.start()) + 1
            emit(violations, ctx, lineno, "capture-budget",
                 "%d captured entities exceed the %d-entity (64-byte) "
                 "inline-callback budget" % (len(captures), CAPTURE_BUDGET))


# --- verify group ------------------------------------------------------------


def _start_bindings(ctx):
    """Resolves every collective start site to its binding.

    Returns (bindings, discarded) where bindings maps a statement-start
    position to (name, call) for `OpBase& name = ...start_x(...)` forms and
    discarded lists call sites whose result vanished (no handle at all).
    Escaping forms (the started op's address passed straight into a call,
    e.g. `ops.push_back(&comm.start_x(...))`) are untrackable and skipped.
    """
    model = ctx.model
    bindings = {}
    discarded = []
    for call in model.find_calls(COLLECTIVE_STARTS):
        stmt_start, stmt = model.statement_before(call.pos)
        mb = OPBASE_BIND_RE.search(stmt)
        if mb:
            bindings.setdefault(stmt_start, (mb.group(1), call))
            continue
        s = stmt.lstrip()
        bare = ((call.receiver and s.startswith(call.receiver)) or
                (not call.receiver and s.startswith(call.name)))
        if bare and "=" not in stmt:
            discarded.append(call)
    return bindings, discarded


def check_coll_matching(ctx, violations):
    model = ctx.model
    code = model.code
    bindings, discarded = _start_bindings(ctx)
    for call in discarded:
        emit(violations, ctx, call.line, "coll-matching",
             "collective '%s' started and discarded: no handle to wait on "
             "(bind the OpBase& and poll done(), or use the blocking API)" %
             call.name)
    for _stmt_start, (name, call) in sorted(bindings.items()):
        fn = model.enclosing_function(call.pos)
        region_end = fn.end if fn is not None and fn.end else len(code)
        region = code[call.pos:region_end]
        waited = re.search(
            r"\b%s\s*(?:\.|->)\s*(?:done|set_on_done)\s*\(" % name, region)
        finished = re.search(r"\bfinish\s*\(\s*\*?\s*%s\b" % name, region)
        if not waited and not finished:
            emit(violations, ctx, call.line, "coll-matching",
                 "started collective '%s' bound to '%s' has no reachable "
                 "wait in this function (poll done(), call finish(), or "
                 "install set_on_done)" % (call.name, name))
    # PARCOACH-style divergence: collectives under rank-dependent control
    # flow in driver code.
    rel = ctx.path.replace(os.sep, "/")
    if not any(rel.startswith(d + "/") for d in DRIVER_DIRS):
        return
    # Rank *identity*, not rank counts: `rank == 0` or `my_rank` diverge the
    # collective sequence; `ranks <= 6` (a world-size guard) does not.
    rank_re = re.compile(r"\brank\b|\bmy_rank\b|\brank_of\w*\b", re.IGNORECASE)
    sites = list(model.find_calls(COLLECTIVE_STARTS))
    sites += [c for c in model.find_calls(BLOCKING_COLLS)
              if "comm" in c.receiver]
    for call in sites:
        for cond in model.conditions_enclosing(call.pos):
            if rank_re.search(cond):
                emit(violations, ctx, call.line, "coll-matching",
                     "collective '%s' is control-flow dependent on rank "
                     "identity (condition: '%s'): all ranks of a "
                     "communicator must issue the same collective sequence" %
                     (call.name, " ".join(cond.split())[:60]))
                break


def check_comm_lifecycle(ctx, violations):
    model = ctx.model
    code = model.code
    # Retirement sites: std::move of a *comm* expression, reset, = nullptr.
    retire_sites = []
    for m in COMM_MOVE_RE.finditer(code):
        line = model.lineno(m.start())
        retire_sites.append((m.end(), m.group(1), line))
        if "comm-retire" not in model.tags_at(line):
            emit(violations, ctx, line, "comm-lifecycle",
                 "communicator '%s' retired (std::move) without a "
                 "'// mccl: comm-retire <why>' annotation documenting the "
                 "hand-off" % m.group(1))
    for m in COMM_RESET_RE.finditer(code):
        expr = m.group(1) or m.group(2)
        retire_sites.append((m.end(), expr, model.lineno(m.start())))
    # Start-after-retire: a collective use through the retired expression
    # before any reassignment, within the same function.
    for end_pos, expr, _line in retire_sites:
        fn = model.enclosing_function(end_pos)
        region_end = fn.end if fn is not None and fn.end else len(code)
        region = code[end_pos:region_end]
        e = re.escape(expr)
        reassign = re.search(r"%s\s*=[^=]" % e, region)
        use = re.search(r"%s\s*(?:\.|->)\s*\w+" % e, region)
        if use and (reassign is None or use.start() < reassign.start()):
            emit(violations, ctx, model.lineno(end_pos + use.start()),
                 "comm-lifecycle",
                 "communicator '%s' used after retirement: the state "
                 "machine is create -> start -> wait -> retire; rebuild "
                 "before reuse" % expr)
    # OpBase reuse past terminal state: start() twice, finish() twice on
    # the same receiver within one function.
    for fn in [s for s in model.scopes
               if s.kind in (cppmodel.FUNCTION, cppmodel.LAMBDA)]:
        if fn.end is None:
            continue
        if (fn.parent is not None and
                fn.parent.enclosing_function() is not None):
            continue  # count each site once, in its outermost function
        body = code[fn.start:fn.end]
        seen = {}
        for m in OP_START_RE.finditer(body):
            recv = m.group(1)
            if recv in seen:
                emit(violations, ctx, model.lineno(fn.start + m.start()),
                     "comm-lifecycle",
                     "'%s.start()' called twice in one function: an OpBase "
                     "is single-shot; past done() it is terminal" % recv)
            seen[recv] = True
        seen = {}
        for m in FINISH_RE.finditer(body):
            arg = m.group(1)
            if arg in seen:
                emit(violations, ctx, model.lineno(fn.start + m.start()),
                     "comm-lifecycle",
                     "'finish(%s)' called twice in one function: a "
                     "completed OpBase stays terminal; results must be "
                     "taken once" % arg)
            seen[arg] = True


def check_unchecked_result(ctx, violations):
    model = ctx.model
    code = model.code
    # Named OpResult bindings: the status must be consulted (or the value
    # escapes by return / argument passing) somewhere in the function.
    for m in OPRESULT_BIND_RE.finditer(code):
        name = m.group(1)
        fn = model.enclosing_function(m.start())
        region_end = fn.end if fn is not None and fn.end else len(code)
        region = code[m.end():region_end]
        checked = (
            re.search(r"\b%s\s*\.\s*(?:%s)\b" %
                      (name, "|".join(RESULT_STATUS_MEMBERS)), region) or
            re.search(r"[(,]\s*&?\s*%s\s*[),]" % name, region) or
            re.search(r"\breturn\s+%s\s*;" % name, region))
        if not checked:
            emit(violations, ctx, model.lineno(m.start()),
                 "unchecked-result",
                 "OpResult '%s' is never status-checked (.status / .failed "
                 "/ .data_verified): silent kPartial/kFailed swallowing" %
                 name)
    # start_*-bound OpBase: waiting is not checking.
    bindings, _discarded = _start_bindings(ctx)
    for _stmt_start, (name, call) in sorted(bindings.items()):
        fn = model.enclosing_function(call.pos)
        region_end = fn.end if fn is not None and fn.end else len(code)
        region = code[call.pos:region_end]
        checked = (
            re.search(r"\b%s\s*(?:\.|->)\s*(?:%s)\s*\(" %
                      (name, "|".join(OP_STATUS_METHODS)), region) or
            re.search(r"\bfinish\s*\(\s*\*?\s*%s\b" % name, region) or
            re.search(r"\b%s\s*(?:\.|->)\s*set_on_done\s*\(" % name, region))
        if not checked:
            emit(violations, ctx, call.line, "unchecked-result",
                 "OpBase '%s' from '%s' is waited on but never "
                 "status-checked (result()/verify()): a partial "
                 "or failed op completes silently" % (name, call.name))
    # Blocking collective whose OpResult is dropped on the floor.
    for call in model.find_calls(BLOCKING_COLLS):
        if "comm" not in call.receiver:
            continue
        _stmt_start, stmt = model.statement_before(call.pos)
        s = stmt.lstrip()
        if s.startswith(call.receiver) and "=" not in stmt:
            emit(violations, ctx, call.line, "unchecked-result",
                 "blocking collective '%s' result discarded: OpResult "
                 "carries the kOk/kPartial/kFailed verdict" % call.name)


def check_lambda_escape(ctx, violations):
    model = ctx.model
    code = model.code
    for call in model.find_calls(("schedule", "schedule_at", "post")):
        # Find the first lambda introducer at argument depth 1.
        i = call.args_open + 1
        depth = 1
        lb = -1
        while i < len(code) and i < call.args_open + 600:
            c = code[i]
            if c in "({":
                depth += 1
            elif c in ")}":
                depth -= 1
                if depth == 0:
                    break
            elif c == "[" and depth == 1:
                prev = code[call.args_open + 1:i].rstrip()
                if prev == "" or prev.endswith(","):
                    lb = i
                break
            i += 1
        if lb < 0:
            continue
        rb = code.find("]", lb)
        if rb < 0:
            continue
        captures = [c.strip() for c in code[lb + 1:rb].split(",")
                    if c.strip()]
        byref = [c for c in captures if c.startswith("&")]
        if byref:
            emit(violations, ctx, model.lineno(call.pos), "lambda-escape",
                 "by-reference capture %s escapes into an engine callback "
                 "that may outlive this frame; capture by value (or this)" %
                 ", ".join("'%s'" % c for c in byref))


# --- rule table --------------------------------------------------------------

RULES = [
    # (rule, group, scopes, checker)
    ("no-wallclock", "lint", CORE_DIRS, check_wallclock),
    ("no-unordered-iter", "lint", CORE_DIRS, check_unordered_iter),
    ("no-pointer-key", "lint", CORE_DIRS, check_pointer_key),
    ("no-shared-packet", "lint", ALL_SRC, check_shared_packet),
    ("no-hot-alloc", "lint", ALL_SRC, check_hot_alloc),
    ("no-datapath-deque", "lint", DATAPATH_DIRS, check_datapath_deque),
    ("capture-budget", "lint", CORE_DIRS, check_capture_budget),
    ("layer-order", "lint", ALL_SRC, check_layer_order),
    ("coll-matching", "verify", VERIFY_DIRS, check_coll_matching),
    ("comm-lifecycle", "verify", VERIFY_DIRS, check_comm_lifecycle),
    ("unchecked-result", "verify", VERIFY_DIRS, check_unchecked_result),
    ("lambda-escape", "verify", ALL_SRC, check_lambda_escape),
]

RULE_DOCS = {
    "no-wallclock": "No wall-clock, libc randomness or environment reads "
                    "in the simulation core",
    "no-unordered-iter": "No range-for over unordered containers "
                         "(implementation-defined order)",
    "no-pointer-key": "No associative containers keyed by raw pointers",
    "no-shared-packet": "Packets are pooled; hold them via fabric::PacketRef",
    "no-hot-alloc": "No heap allocation inside begin-hot regions",
    "no-datapath-deque": "No std::deque in src/sim, src/rdma, src/exec or "
                         "src/fabric; FIFOs are common/ring.hpp Rings",
    "capture-budget": "Engine-schedule lambda captures stay within the "
                      "64-byte inline budget",
    "layer-order": "A src/<layer>/ file includes only its own or lower "
                   "layers",
    "coll-matching": "Every started collective has a reachable wait; no "
                     "rank-divergent collective sequences",
    "comm-lifecycle": "Communicator create/start/wait/retire state machine "
                      "and single-shot OpBase discipline",
    "unchecked-result": "OpResult / OpBase completion status must be "
                        "consulted (no silent kPartial/kFailed)",
    "lambda-escape": "No by-reference captures escaping into engine "
                     "callbacks that outlive the frame",
}


def active_rules(group):
    if group == "all":
        return RULES
    return [r for r in RULES if r[1] == group]


def analyze(relpath, text, rules):
    """Runs every scope-matching rule over one snippet/translation unit."""
    ctx = FileContext(relpath, text)
    rel = relpath.replace(os.sep, "/")
    violations = []
    for _rule, _group, scopes, checker in rules:
        if any(rel.startswith(scope + "/") for scope in scopes):
            checker(ctx, violations)
    return violations


# --- tree scan ---------------------------------------------------------------


def iter_tree_sources(root):
    for base in SCAN_DIRS:
        top = os.path.join(root, base)
        if not os.path.isdir(top):
            continue
        for dirpath, _dirnames, filenames in os.walk(top):
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".h", ".cc")):
                    continue
                path = os.path.join(dirpath, name)
                relpath = os.path.relpath(path, root)
                try:
                    with open(path, "r", encoding="utf-8",
                              errors="replace") as fh:
                        yield relpath, fh.read()
                except OSError as err:
                    print("mccl-lint: cannot read %s: %s" % (path, err),
                          file=sys.stderr)


def scan_tree(root, group="all"):
    rules = active_rules(group)
    violations = []
    for relpath, text in iter_tree_sources(root):
        violations.extend(analyze(relpath, text, rules))
    return violations


def write_json(path, violations, group):
    doc = {
        "tool": "mccl-lint",
        "group": group,
        "count": len(violations),
        "violations": [
            {"path": v.path.replace(os.sep, "/"), "line": v.lineno,
             "rule": v.rule, "message": v.message}
            for v in violations
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sarif(path, violations, group):
    rules_meta = [
        {"id": rule, "shortDescription": {"text": RULE_DOCS[rule]}}
        for rule, _g, _s, _c in active_rules(group)
    ]
    doc = {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                   "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "mccl-lint",
                "informationUri":
                    "tools/mccl_lint/mccl_lint.py",
                "rules": rules_meta,
            }},
            "results": [
                {
                    "ruleId": v.rule,
                    "level": "error",
                    "message": {"text": v.message},
                    "locations": [{
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": v.path.replace(os.sep, "/"),
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {"startLine": v.lineno},
                        },
                    }],
                }
                for v in violations
            ],
        }],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_scan(root, group, json_path=None, sarif_path=None):
    violations = scan_tree(root, group)
    for v in violations:
        print(v)
    if json_path:
        write_json(json_path, violations, group)
    if sarif_path:
        write_sarif(sarif_path, violations, group)
    if violations:
        print("mccl-lint: %d violation(s)" % len(violations))
        return 1
    print("mccl-lint: clean")
    return 0


# --- self-test --------------------------------------------------------------

SELF_TESTS = [
    # (rule, relpath, snippet that must trip exactly that rule)
    ("no-wallclock", "src/sim/bad.cpp",
     "void f() { auto t = std::chrono::steady_clock::now(); }\n"),
    ("no-wallclock", "src/fabric/bad.cpp",
     "int f() { return std::rand(); }\n"),
    ("no-wallclock", "src/coll/bad.cpp",
     "const char* f() { return getenv(\"MCCL_DEBUG\"); }\n"),
    ("no-unordered-iter", "src/rdma/bad.cpp",
     "#include <unordered_map>\n"
     "std::unordered_map<int, int> table_;\n"
     "int f() { int s = 0; for (const auto& kv : table_) s += kv.second;\n"
     "  return s; }\n"),
    ("no-pointer-key", "src/coll/bad2.cpp",
     "#include <map>\n"
     "std::map<Packet*, int> refs_;\n"),
    ("no-shared-packet", "src/fabric/bad2.cpp",
     "#include <memory>\n"
     "std::shared_ptr<Packet> keep_alive_;\n"),
    ("no-hot-alloc", "src/sim/bad2.cpp",
     "// mccl-lint: begin-hot test-region\n"
     "void step() { auto* p = new int(7); (void)p; }\n"
     "// mccl-lint: end-hot\n"),
    ("no-wallclock", "src/sched/bad.cpp",
     "unsigned f() { return std::random_device{}(); }\n"),
    ("no-datapath-deque", "src/exec/bad.cpp",
     "#include <deque>\n"
     "struct W { std::deque<Task> queue_; };\n"),
    ("capture-budget", "src/sim/bad3.cpp",
     "void f() {\n"
     "  int a, b, c, d, e, g, h, i, j;\n"
     "  engine.schedule(5, [this, a, b, c, d, e, g, h, i, j] {\n"
     "    use(a); });\n"
     "}\n"),
    ("layer-order", "src/rdma/bad_layer.hpp",
     "#include \"src/rdma/qp.hpp\"\n"
     "#include \"src/sched/cluster_sched.hpp\"\n"),
    # --- verify group seeds -------------------------------------------------
    ("coll-matching", "examples/bad_wait.cpp",
     "void f(coll::Communicator& comm) {\n"
     "  coll::OpBase& op =\n"
     "      comm.start_allgather(1024, coll::AllgatherAlgo::kMcast);\n"
     "  (void)op;\n"
     "}\n"),
    ("coll-matching", "bench/bad_discard.cpp",
     "void f(coll::Communicator& comm) {\n"
     "  comm.start_barrier();\n"
     "}\n"),
    ("coll-matching", "examples/bad_diverge.cpp",
     "void f(coll::Communicator& comm, std::size_t rank) {\n"
     "  if (rank == 0) {\n"
     "    coll::OpBase& op = comm.start_broadcast(0, 64, "
     "coll::BcastAlgo::kMcast);\n"
     "    comm.finish(op);\n"
     "  }\n"
     "}\n"),
    ("comm-lifecycle", "src/sched/bad_retire.cpp",
     "void requeue(JobRecord& rec) {\n"
     "  rec.retired_comms.push_back(std::move(rec.comm));\n"
     "}\n"),
    ("comm-lifecycle", "src/sched/bad_use_after.cpp",
     "void requeue(JobRecord& rec) {\n"
     "  // mccl: comm-retire handing the comm to the retirement list\n"
     "  rec.retired_comms.push_back(std::move(rec.comm));\n"
     "  rec.comm->align_symmetric_heap();\n"
     "}\n"),
    ("comm-lifecycle", "tests/bad_restart.cpp",
     "void f(coll::OpBase& op) {\n"
     "  op.start();\n"
     "  op.start();\n"
     "}\n"),
    ("unchecked-result", "examples/bad_result.cpp",
     "void f(coll::Communicator& comm) {\n"
     "  const coll::OpResult res =\n"
     "      comm.broadcast(0, 64, coll::BcastAlgo::kMcast);\n"
     "  report(res.duration());\n"
     "}\n"),
    ("unchecked-result", "bench/bad_drop.cpp",
     "void f(coll::Communicator& comm) {\n"
     "  comm.barrier();\n"
     "}\n"),
    ("unchecked-result", "examples/bad_waited_unchecked.cpp",
     "void f(coll::Communicator& comm, coll::Cluster& cluster) {\n"
     "  coll::OpBase& op =\n"
     "      comm.start_broadcast(0, 64, coll::BcastAlgo::kMcast);\n"
     "  cluster.run_until_done([&op] { return op.done(); });\n"
     "}\n"),
    ("lambda-escape", "src/coll/bad_escape.cpp",
     "void f(sim::Engine& engine) {\n"
     "  int local = 7;\n"
     "  engine.schedule(5, [&local] { use(local); });\n"
     "}\n"),
]

CLEAN_TESTS = [
    # Comment/string mentions and suppressed lines must stay quiet.
    ("src/sim/ok.cpp",
     "// std::rand() would be wrong here; we use common/rng.hpp instead.\n"
     "const char* kMsg = \"getenv(HOME)\";\n"
     "// mccl-lint: allow(no-wallclock) documented determinism escape hatch\n"
     "const char* f() { return getenv(\"MCCL_TRACE\"); }\n"),
    ("src/rdma/ok.cpp",
     "#include <unordered_map>\n"
     "std::unordered_map<int, int> table_;\n"
     "int f(int k) { return table_.at(k); }  // point lookup: fine\n"),
    # Outside the datapath layers a deque is fine.
    ("src/sched/ok_deque.cpp",
     "#include <deque>\n"
     "std::deque<int> waiting_;  // std::deque<int> in a comment is fine\n"),
    ("src/sim/ok2.cpp",
     "void warm() { auto* p = new int(7); (void)p; }  // not in a hot region\n"),
    # Same or lower layers, and a commented-out include, are fine.
    ("src/sched/ok_layer.cpp",
     "#include \"src/sched/job.hpp\"\n"
     "#include \"src/rdma/nic.hpp\"\n"
     "#include \"src/common/units.hpp\"\n"),
    ("src/rdma/ok_layer.hpp",
     "// #include \"src/sched/cluster_sched.hpp\" would invert the layers\n"
     "#include \"src/fabric/fabric.hpp\"\n"),
    # The canonical correct protocol usage: start, wait, status-check the
    # OpBase; blocking call with a status-checked OpResult.
    ("examples/ok_verify.cpp",
     "int f(coll::Communicator& comm, coll::Cluster& cluster) {\n"
     "  coll::OpBase& op =\n"
     "      comm.start_allgather(1024, coll::AllgatherAlgo::kMcast);\n"
     "  cluster.run_until_done([&op] { return op.done(); });\n"
     "  if (op.result().status != coll::OpStatus::kOk) return 1;\n"
     "  const coll::OpResult res =\n"
     "      comm.allgather(64, coll::AllgatherAlgo::kRing);\n"
     "  if (res.status != coll::OpStatus::kOk) return 1;\n"
     "  return res.data_verified ? 0 : 1;\n"
     "}\n"),
    # Non-blocking driver form: set_on_done is both the wait and the check;
    # an annotated retire followed by a rebuild is the legal shrink path.
    ("src/sched/ok_lifecycle.cpp",
     "void relaunch(JobRecord& rec, coll::Cluster& cluster) {\n"
     "  // mccl: comm-retire superseded by the shrink relaunch below\n"
     "  rec.retired_comms.push_back(std::move(rec.comm));\n"
     "  rec.comm = std::make_unique<coll::Communicator>(cluster, hosts);\n"
     "  coll::OpBase& op =\n"
     "      rec.comm->start_allgather(64, coll::AllgatherAlgo::kMcast);\n"
     "  op.set_on_done([&rec](coll::OpBase& o) { done(rec, o); });\n"
     "}\n"),
]


def _suppress_all(snippet, violations, rule):
    """Appends an allow() for `rule` to every flagged line of `snippet`."""
    lines = snippet.splitlines()
    for v in violations:
        if v.rule != rule:
            continue
        idx = v.lineno - 1
        if 0 <= idx < len(lines):
            lines[idx] += "  // mccl-lint: allow(%s) self-test suppression" \
                          % rule
    return "\n".join(lines) + "\n"


def run_self_test():
    failures = []
    for rule, relpath, snippet in SELF_TESTS:
        violations = analyze(relpath, snippet, RULES)
        hit = [v for v in violations if v.rule == rule]
        if not hit:
            failures.append("rule '%s' did not trip on its seeded violation"
                            " (%s)" % (rule, relpath))
            continue
        # Every rule must be suppressible: the same seed with allow()
        # markers on the flagged lines must fall silent.
        suppressed = _suppress_all(snippet, hit, rule)
        still = [v for v in analyze(relpath, suppressed, RULES)
                 if v.rule == rule]
        if still:
            failures.append("rule '%s' ignored allow() suppression (%s): %s"
                            % (rule, relpath,
                               "; ".join(str(v) for v in still)))
    for relpath, snippet in CLEAN_TESTS:
        violations = analyze(relpath, snippet, RULES)
        if violations:
            failures.append("clean snippet %s tripped: %s" %
                            (relpath, "; ".join(str(v) for v in violations)))
    if failures:
        for f in failures:
            print("mccl-lint self-test FAIL: %s" % f)
        return 1
    print("mccl-lint self-test: %d seeded violations tripped (and "
          "suppressed), %d clean snippets quiet" %
          (len(SELF_TESTS), len(CLEAN_TESTS)))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        prog="mccl-lint",
        description="determinism / hot-path / protocol-correctness lint "
                    "for the mccl tree")
    parser.add_argument("--root", help="repository root to scan")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded rule self-test")
    parser.add_argument("--group", choices=("all", "lint", "verify"),
                        default="all",
                        help="rule group to run (default: all)")
    parser.add_argument("--json", metavar="PATH",
                        help="write violations as JSON")
    parser.add_argument("--sarif", metavar="PATH",
                        help="write violations as SARIF 2.1.0")
    args = parser.parse_args(argv)
    if args.self_test:
        return run_self_test()
    if args.root:
        return run_scan(args.root, args.group, args.json, args.sarif)
    parser.error("one of --root or --self-test is required")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
