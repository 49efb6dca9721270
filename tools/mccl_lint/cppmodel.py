"""cppmodel: a lightweight C++ token/scope model for mccl-lint.

This is the parsing layer of the two-layer analyzer. It is NOT a C++
front-end: it is a deliberately small, stdlib-only scanner that recovers
just enough structure for protocol-usage rules to reason about

  * scopes        -- a brace tree classifying each `{...}` region as a
                     namespace / class / function / lambda / control
                     (if/for/while/switch) / init-brace region, with the
                     header text that introduced it;
  * call sites    -- `recv.method(...)` / `recv->method(...)` occurrences
                     with the receiver's postfix expression recovered by a
                     right-to-left scan (so `w.comm->start_allgather` yields
                     receiver `w.comm`);
  * statements    -- the enclosing statement text of any position (back-scan
                     to the nearest top-level `;`, `{` or `}`), which is how
                     rules see binding forms (`OpBase& op = ...start_x(...)`)
                     versus discarded or escaping calls;
  * control flow  -- the chain of enclosing if/for/while/switch conditions
                     between a position and its enclosing function, the
                     input to the PARCOACH-style divergence check;
  * annotations   -- `// mccl: <tag> [reason]` source annotations
                     (comm-retire), resolved per line.

Everything operates on comment/string-stripped text with stable line/column
positions (see strip_comments_and_strings), except annotation parsing which
reads the raw lines.
"""

import bisect
import re

# Scope kinds.
NAMESPACE = "namespace"
CLASS = "class"
FUNCTION = "function"
LAMBDA = "lambda"
CONTROL = "control"
INIT = "init"      # brace initializer / aggregate literal, not a scope
BLOCK = "block"

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "constexpr"}

ANNOTATION_RE = re.compile(r"//\s*mccl:\s*([\w\-]+)(?:\s+(.*))?$")

_TRAILING_RETURN_RE = re.compile(r"->\s*[\w:<>&*\s]+$")
_MODIFIER_RE = re.compile(
    r"(?:\bconst\b|\bnoexcept\b|\boverride\b|\bfinal\b|\bmutable\b|&&|&)\s*$")
_CLASS_RE = re.compile(r"\b(?:class|struct|union|enum)\b\s*(?:class\s+)?"
                       r"([A-Za-z_]\w*)?")
_NAMESPACE_RE = re.compile(r"\bnamespace\b\s*([\w:]*)")
_INIT_TAIL_RE = re.compile(r"(?:[=,(\[]|\breturn|\bco_return)\s*$")


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving line structure.

    Keeps column positions stable by replacing each removed character with a
    space (newlines survive). Handles //, /* */, "...", '...', and basic
    raw strings R"tag(...)tag".
    """
    out = list(text)
    i, n = 0, len(text)
    NORMAL, LINE, BLOCK_C, STR, CHR = range(5)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_C
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "R" and nxt == '"':
                m = re.match(r'R"([^\s()\\]*)\(', text[i:])
                if m:
                    tag = m.group(1)
                    end = text.find(")" + tag + '"', i + len(m.group(0)))
                    end = n if end < 0 else end + len(tag) + 2
                    for j in range(i, end):
                        if text[j] != "\n":
                            out[j] = " "
                    i = end
                    continue
            if c == '"':
                state = STR
                out[i] = " "
                i += 1
                continue
            # Apostrophes as digit separators (1'000'000) are between
            # alphanumerics; char literals are not.
            if c == "'" and not (i > 0 and text[i - 1].isalnum() and
                                 nxt.isalnum()):
                state = CHR
                out[i] = " "
                i += 1
                continue
            i += 1
            continue
        if state == LINE:
            if c == "\n":
                state = NORMAL
            else:
                out[i] = " "
            i += 1
            continue
        if state == BLOCK_C:
            if c == "*" and nxt == "/":
                state = NORMAL
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
            continue
        # STR / CHR
        if c == "\\" and i + 1 < n:
            out[i] = " "
            if nxt != "\n":
                out[i + 1] = " "
            i += 2
            continue
        if (state == STR and c == '"') or (state == CHR and c == "'"):
            state = NORMAL
            out[i] = " "
            i += 1
            continue
        if c != "\n":
            out[i] = " "
        i += 1
    return "".join(out)


class Scope:
    """One `{...}` region with its classification and header."""

    __slots__ = ("kind", "name", "header", "condition", "params", "start",
                 "end", "start_line", "end_line", "header_line", "parent")

    def __init__(self, kind, name, header, condition, params, start,
                 header_line, start_line, parent):
        self.kind = kind
        self.name = name            # function/class/namespace identifier
        self.header = header        # raw header text before the brace
        self.condition = condition  # control scopes: the (...) contents
        self.params = params        # function scopes: the (...) contents
        self.start = start          # position of '{'
        self.end = None             # position of matching '}'
        self.header_line = header_line  # first line of the header text
        self.start_line = start_line    # line of '{'
        self.end_line = None
        self.parent = parent

    def contains(self, pos):
        return self.start <= pos <= (self.end if self.end is not None
                                     else float("inf"))

    def enclosing_function(self):
        """Innermost function or lambda scope at or above this one."""
        s = self
        while s is not None and s.kind not in (FUNCTION, LAMBDA):
            s = s.parent
        return s

    def __repr__(self):
        return "Scope(%s %r L%s-%s)" % (self.kind, self.name,
                                        self.start_line, self.end_line)


def _matching_open(code, close_pos):
    """Index of the bracket matching the one at close_pos, or -1."""
    close = code[close_pos]
    opener = {")": "(", "]": "[", "}": "{"}[close]
    depth = 0
    j = close_pos
    while j >= 0:
        c = code[j]
        if c == close:
            depth += 1
        elif c == opener:
            depth -= 1
            if depth == 0:
                return j
        j -= 1
    return -1


def postfix_expr_before(code, pos):
    """Recovers the postfix expression ending just before `pos`.

    `pos` points at the separator (`.` or `->`) of a member access; the
    returned string is the receiver, e.g. `w.comm` for `w.comm->start()`
    or `eps_[r]` for `eps_[r]->nic()`. Stops at whitespace, operators and
    unbalanced brackets, so `return comm` yields just `comm`.
    """
    j = pos
    while j > 0:
        c = code[j - 1]
        if c.isalnum() or c == "_" or c == ".":
            j -= 1
            continue
        if c in ")]":
            m = _matching_open(code, j - 1)
            if m < 0:
                break
            j = m
            continue
        if c == ">" and j >= 2 and code[j - 2] == "-":
            j -= 2
            continue
        if c == ":" and j >= 2 and code[j - 2] == ":":
            j -= 2
            continue
        break
    return code[j:pos].strip()


class CallSite:
    __slots__ = ("name", "receiver", "pos", "line", "args_open")

    def __init__(self, name, receiver, pos, line, args_open):
        self.name = name          # method name
        self.receiver = receiver  # postfix receiver text ('' for free calls)
        self.pos = pos            # position of the method-name token
        self.line = line
        self.args_open = args_open  # position of the '(' opening the args


class Model:
    """Per-translation-unit source model (scopes, calls, annotations)."""

    def __init__(self, text, code=None):
        self.raw = text
        self.raw_lines = text.splitlines()
        self.code = code if code is not None else (
            strip_comments_and_strings(text))
        self._newlines = [m.start() for m in re.finditer("\n", self.code)]
        # annotations[line] = [(tag, reason)] from `// mccl: tag reason`.
        self.annotations = {}
        for idx, line in enumerate(self.raw_lines, start=1):
            m = ANNOTATION_RE.search(line)
            if m:
                self.annotations.setdefault(idx, []).append(
                    (m.group(1), (m.group(2) or "").strip()))
        self.scopes = []
        self._build_scopes()

    # --- positions -----------------------------------------------------------

    def lineno(self, pos):
        return bisect.bisect_right(self._newlines, pos - 1) + 1

    def scope_at(self, pos):
        """Innermost scope containing `pos` (None at file level)."""
        best = None
        for s in self.scopes:
            if s.start < pos and (s.end is None or pos < s.end):
                if best is None or s.start > best.start:
                    best = s
        return best

    def enclosing_function(self, pos):
        s = self.scope_at(pos)
        return s.enclosing_function() if s is not None else None

    def statement_before(self, pos):
        """(start, text) of the statement enclosing `pos`.

        Scans left to the nearest `;`, `{` or `}` — brackets inside
        parenthesized groups (e.g. the semicolons of a `for(;;)`) are
        skipped by bracket matching.
        """
        j = pos
        while j > 0:
            c = self.code[j - 1]
            if c in ";{}":
                break
            if c in ")]":
                m = _matching_open(self.code, j - 1)
                if m >= 0:
                    j = m
                    continue
            j -= 1
        return j, self.code[j:pos]

    def conditions_enclosing(self, pos):
        """Conditions of the control scopes between `pos` and its function.

        Walks the scope chain outward, collecting `(...)` texts of
        if/for/while/switch scopes, stopping at the first function scope.
        Lambdas and init braces are transparent (a collective issued from a
        lambda created under `if (rank == 0)` is still rank-divergent).
        """
        out = []
        s = self.scope_at(pos)
        while s is not None and s.kind != FUNCTION:
            if s.kind == CONTROL and s.condition:
                out.append(s.condition)
            s = s.parent
        return out

    # --- annotations ---------------------------------------------------------

    def tags_at(self, line):
        """Annotation tags on `line` or the line directly above it."""
        tags = []
        for ln in (line, line - 1):
            for tag, _reason in self.annotations.get(ln, []):
                tags.append(tag)
        return tags

    # --- call sites ----------------------------------------------------------

    def find_calls(self, names):
        """CallSites for member/free calls to any name in `names`."""
        pat = re.compile(r"(?<![\w:])(%s)\s*\(" %
                        "|".join(re.escape(n) for n in sorted(names)))
        out = []
        for m in pat.finditer(self.code):
            name_pos = m.start(1)
            # Separate member calls (recover the receiver) from free calls.
            k = name_pos
            receiver = ""
            if k >= 1 and self.code[k - 1] == ".":
                receiver = postfix_expr_before(self.code, k - 1)
            elif k >= 2 and self.code[k - 2:k] == "->":
                receiver = postfix_expr_before(self.code, k - 2)
            out.append(CallSite(m.group(1), receiver, name_pos,
                                self.lineno(name_pos), m.end() - 1))
        return out

    # --- scope construction --------------------------------------------------

    def _build_scopes(self):
        code = self.code
        stmt_start = 0
        paren = 0
        stack = []          # open Scope objects
        paren_stack = []    # saved paren depth per scope
        current = None
        for i, c in enumerate(code):
            if c == "(":
                paren += 1
            elif c == ")":
                paren = max(0, paren - 1)
            elif c == ";" and paren == 0:
                stmt_start = i + 1
            elif c == "{":
                header = code[stmt_start:i]
                scope = self._classify(header, stmt_start, i, paren, current)
                self.scopes.append(scope)
                stack.append(scope)
                paren_stack.append(paren)
                current = scope
                paren = 0
                stmt_start = i + 1
            elif c == "}":
                if stack:
                    scope = stack.pop()
                    scope.end = i
                    scope.end_line = self.lineno(i)
                    paren = paren_stack.pop()
                    current = stack[-1] if stack else None
                stmt_start = i + 1
        # Close any unterminated scopes at EOF (truncated input).
        for scope in stack:
            scope.end = len(code)
            scope.end_line = self.lineno(len(code) - 1) if code else 1

    def _classify(self, header, header_pos, brace_pos, paren, parent):
        h = header.strip()
        header_line = self.lineno(header_pos + max(0, len(header) -
                                                   len(header.lstrip())))
        start_line = self.lineno(brace_pos)

        def mk(kind, name="", condition="", params=""):
            return Scope(kind, name, h, condition, params, brace_pos,
                         header_line, start_line, parent)

        if parent is not None and parent.kind == INIT:
            return mk(INIT)
        if _INIT_TAIL_RE.search(h):
            # `= {`, `({`, `, {`, `return {` — brace initializer, but a
            # lambda introducer inside an argument list is a real scope.
            if h.endswith("]") or re.search(r"\]\s*$", h):
                return mk(LAMBDA)
            return mk(INIT)
        if not h:
            return mk(INIT if paren > 0 else BLOCK)
        mns = _NAMESPACE_RE.search(h)
        if mns and "(" not in h[mns.start():]:
            return mk(NAMESPACE, name=mns.group(1))
        # Constructor init lists: `Foo::Foo(...) : a_(1), b_(2) {` — parse
        # the declaration's own parens, not the last initializer's.
        mctor = re.search(r"\)\s*:(?!:)", h)
        if mctor:
            h = h[:mctor.start() + 1]
        # Strip trailing return types and modifiers to expose the ')'.
        h2 = _TRAILING_RETURN_RE.sub("", h).rstrip()
        while True:
            h3 = _MODIFIER_RE.sub("", h2).rstrip()
            if h3 == h2:
                break
            h2 = h3
        if h2.endswith("]"):
            return mk(LAMBDA)
        if h2.endswith(")"):
            op = _matching_open(h2, len(h2) - 1)
            if op >= 0:
                inner = h2[op + 1:-1]
                before = h2[:op].rstrip()
                if before.endswith("]"):
                    return mk(LAMBDA, params=inner)
                mname = re.search(r"([A-Za-z_][\w:]*)$", before)
                if mname:
                    name = mname.group(1)
                    simple = name.rsplit(":", 1)[-1]
                    if simple in CONTROL_KEYWORDS:
                        kw = simple if simple != "constexpr" else "if"
                        return mk(CONTROL, name=kw, condition=inner)
                    return mk(FUNCTION, name=name, params=inner)
            return mk(BLOCK)
        mcls = _CLASS_RE.search(h2)
        if mcls and "(" not in h2:
            return mk(CLASS, name=mcls.group(1) or "")
        last = h2.split()[-1] if h2.split() else ""
        if last in ("else", "do", "try"):
            return mk(CONTROL, name=last)
        return mk(BLOCK)
