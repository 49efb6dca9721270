// lint-path: src/coll/corpus_case.cpp
void f(sim::Engine& engine) {
  static Accumulator acc;
  // mccl-lint: allow(lambda-escape) acc outlives the engine in this fixture
  engine.schedule(5, [&acc] { acc.tick(); });
}
