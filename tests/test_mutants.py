from mutants import MUTANTS
from run_mutants import ROOT, mutated


def test_every_mutant_applies():
    # Running the mutants is ``run_mutants.py``'s job; here each entry's old
    # text must still occur exactly once in its file under ``src``.
    for mutant in MUTANTS:
        assert mutant[0].startswith("src/qreuse/"), mutant[0]
        mutated(ROOT, mutant)
