#!/usr/bin/env python3
"""Tests for the mccl-lint analyzer itself.

Covers the golden corpus (every verify rule trips on its bad seed, passes
its clean seed, and falls silent under allow()), the CLI exit-code
contract (0 clean / 1 violations / 2 usage error), and the JSON + SARIF
output shapes. Stdlib only; run with `python3 -m unittest` or directly.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "mccl_lint.py")
CORPUS = os.path.join(HERE, "corpus")

sys.path.insert(0, HERE)
import mccl_lint  # noqa: E402

LINT_PATH_RE = re.compile(r"^//\s*lint-path:\s*(\S+)\s*$", re.MULTILINE)


def load_corpus():
    """Yields (filename, rule, kind, lint_path, body) for each corpus file."""
    for name in sorted(os.listdir(CORPUS)):
        if not name.endswith(".cpp"):
            continue
        rule, kind = name[:-len(".cpp")].rsplit(".", 1)
        with open(os.path.join(CORPUS, name), "r", encoding="utf-8") as fh:
            body = fh.read()
        m = LINT_PATH_RE.search(body)
        if m is None:
            raise AssertionError("%s lacks a // lint-path: directive" % name)
        yield name, rule, kind, m.group(1), body


def analyze(lint_path, body):
    return mccl_lint.analyze(lint_path, body, mccl_lint.RULES)


class CorpusTest(unittest.TestCase):
    """The golden corpus is the behavioural contract for the verify rules."""

    def test_corpus_covers_every_verify_rule(self):
        verify_rules = {r for r, g, _s, _c in mccl_lint.RULES
                        if g == "verify"}
        seen = {}
        for _name, rule, kind, _path, _body in load_corpus():
            seen.setdefault(rule, set()).add(kind)
        for rule in verify_rules:
            self.assertIn(rule, seen, "no corpus for rule %r" % rule)
            self.assertEqual(seen[rule], {"bad", "clean", "suppressed"},
                             "incomplete corpus for rule %r" % rule)

    def test_bad_seeds_trip_their_rule(self):
        for name, rule, kind, path, body in load_corpus():
            if kind != "bad":
                continue
            hits = {v.rule for v in analyze(path, body)}
            self.assertIn(rule, hits,
                          "%s did not trip rule %r (hits: %s)" %
                          (name, rule, sorted(hits)))

    def test_clean_seeds_stay_quiet(self):
        # Clean seeds must be clean under EVERY rule, not just their own:
        # a clean example that trips a sibling rule is a broken example.
        for name, _rule, kind, path, body in load_corpus():
            if kind != "clean":
                continue
            hits = analyze(path, body)
            self.assertEqual([], hits,
                             "%s tripped: %s" %
                             (name, "; ".join(str(v) for v in hits)))

    def test_suppressed_seeds_stay_quiet(self):
        for name, rule, kind, path, body in load_corpus():
            if kind != "suppressed":
                continue
            hits = [v for v in analyze(path, body) if v.rule == rule]
            self.assertEqual([], hits,
                             "%s: allow() did not silence %r: %s" %
                             (name, rule,
                              "; ".join(str(v) for v in hits)))

    def test_bad_seed_line_numbers_are_plausible(self):
        for name, rule, kind, path, body in load_corpus():
            if kind != "bad":
                continue
            nlines = body.count("\n") + 1
            for v in analyze(path, body):
                self.assertTrue(1 <= v.lineno <= nlines,
                                "%s: line %d out of range" % (name, v.lineno))


class SelfTestTest(unittest.TestCase):
    def test_self_test_passes(self):
        proc = subprocess.run([sys.executable, LINT, "--self-test"],
                              capture_output=True, text=True)
        self.assertEqual(0, proc.returncode, proc.stdout + proc.stderr)

    def test_self_test_seeds_every_verify_rule(self):
        verify_rules = {r for r, g, _s, _c in mccl_lint.RULES
                        if g == "verify"}
        seeded = {rule for rule, _path, _snip in mccl_lint.SELF_TESTS}
        self.assertTrue(verify_rules <= seeded,
                        "unseeded verify rules: %s" %
                        sorted(verify_rules - seeded))


class ExitCodeContractTest(unittest.TestCase):
    def run_lint(self, *args):
        return subprocess.run([sys.executable, LINT] + list(args),
                              capture_output=True, text=True)

    def make_tree(self, tmp, relpath, body):
        path = os.path.join(tmp, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)

    def test_clean_tree_exits_zero(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.make_tree(tmp, "src/sim/ok.cpp",
                           "int f() { return 1; }\n")
            proc = self.run_lint("--root", tmp)
            self.assertEqual(0, proc.returncode, proc.stdout + proc.stderr)
            self.assertIn("clean", proc.stdout)

    def test_violations_exit_one(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.make_tree(tmp, "src/sim/bad.cpp",
                           "int f() { return std::rand(); }\n")
            proc = self.run_lint("--root", tmp)
            self.assertEqual(1, proc.returncode, proc.stdout + proc.stderr)
            self.assertIn("no-wallclock", proc.stdout)

    def test_usage_errors_exit_two(self):
        for args in ([], ["--group", "bogus"], ["--no-such-flag"]):
            proc = self.run_lint(*args)
            self.assertEqual(2, proc.returncode,
                             "args %r: rc %d" % (args, proc.returncode))

    def test_group_filter(self):
        with tempfile.TemporaryDirectory() as tmp:
            # One lint-group violation only: `verify` must not see it.
            self.make_tree(tmp, "src/sim/bad.cpp",
                           "int f() { return std::rand(); }\n")
            self.assertEqual(
                0, self.run_lint("--root", tmp, "--group",
                                 "verify").returncode)
            self.assertEqual(
                1, self.run_lint("--root", tmp, "--group",
                                 "lint").returncode)


class OutputFormatTest(unittest.TestCase):
    BAD = ("void f(coll::Communicator& comm) {\n"
           "  comm.start_barrier();\n"
           "}\n")

    def scan(self, tmp):
        os.makedirs(os.path.join(tmp, "examples"), exist_ok=True)
        with open(os.path.join(tmp, "examples", "bad.cpp"), "w",
                  encoding="utf-8") as fh:
            fh.write(self.BAD)
        json_path = os.path.join(tmp, "out.json")
        sarif_path = os.path.join(tmp, "out.sarif")
        proc = subprocess.run(
            [sys.executable, LINT, "--root", tmp,
             "--json", json_path, "--sarif", sarif_path],
            capture_output=True, text=True)
        self.assertEqual(1, proc.returncode, proc.stdout + proc.stderr)
        return json_path, sarif_path

    def test_json_shape(self):
        with tempfile.TemporaryDirectory() as tmp:
            json_path, _ = self.scan(tmp)
            with open(json_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            self.assertEqual("mccl-lint", doc["tool"])
            self.assertEqual(doc["count"], len(doc["violations"]))
            self.assertGreaterEqual(doc["count"], 1)
            v = doc["violations"][0]
            for key in ("path", "line", "rule", "message"):
                self.assertIn(key, v)
            self.assertEqual("examples/bad.cpp", v["path"])
            self.assertIsInstance(v["line"], int)

    def test_sarif_schema(self):
        with tempfile.TemporaryDirectory() as tmp:
            _, sarif_path = self.scan(tmp)
            with open(sarif_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            self.assertEqual("2.1.0", doc["version"])
            self.assertIn("sarif-schema-2.1.0", doc["$schema"])
            self.assertEqual(1, len(doc["runs"]))
            run = doc["runs"][0]
            driver = run["tool"]["driver"]
            self.assertEqual("mccl-lint", driver["name"])
            rule_ids = {r["id"] for r in driver["rules"]}
            for r in driver["rules"]:
                self.assertTrue(r["shortDescription"]["text"])
            self.assertGreaterEqual(len(run["results"]), 1)
            for result in run["results"]:
                # Every result references a rule declared in the driver
                # metadata — GitHub rejects dangling ruleIds.
                self.assertIn(result["ruleId"], rule_ids)
                self.assertIn(result["level"], ("error", "warning", "note"))
                self.assertTrue(result["message"]["text"])
                loc = result["locations"][0]["physicalLocation"]
                self.assertEqual("examples/bad.cpp",
                                 loc["artifactLocation"]["uri"])
                self.assertGreaterEqual(loc["region"]["startLine"], 1)


class ModelTest(unittest.TestCase):
    """Spot checks on the cppmodel layer the rules are built on."""

    def test_scope_and_receiver_recovery(self):
        import cppmodel
        src = ("void f(coll::Communicator& comm) {\n"
               "  if (x > 0) {\n"
               "    coll::OpBase& op = rec.comm->start_broadcast(0, n);\n"
               "  }\n"
               "}\n")
        model = cppmodel.Model(src)
        calls = model.find_calls(("start_broadcast",))
        self.assertEqual(1, len(calls))
        self.assertEqual("rec.comm", calls[0].receiver)
        self.assertEqual(3, calls[0].line)
        conds = model.conditions_enclosing(calls[0].pos)
        self.assertEqual(["x > 0"], conds)

    def test_comments_and_strings_are_invisible(self):
        import cppmodel
        src = ('// comm.start_barrier() in a comment\n'
               'const char* s = "comm.start_barrier()";\n')
        model = cppmodel.Model(src)
        self.assertEqual([], model.find_calls(("start_barrier",)))

    def test_annotation_parsing(self):
        import cppmodel
        src = ("// mccl: comm-retire handed to the retirement list\n"
               "retired.push_back(std::move(comm));\n")
        model = cppmodel.Model(src)
        self.assertIn("comm-retire", model.tags_at(2))
        self.assertEqual([], model.tags_at(3))


if __name__ == "__main__":
    unittest.main()
