import importlib.util
import os

SURVEY = os.path.join(os.path.dirname(__file__), "..", "scripts", "survey_order32.py")


def test_survey_script_classifies_order_16(corpus_groups):
    """The survey script, loaded by path as the benchmark loads it, exposes
    ``central_extensions`` and ``classify``, and its central extensions of
    the five groups of order 8 fall into the 14 classes of order 16."""
    spec = importlib.util.spec_from_file_location("survey_order32", SURVEY)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    order8 = [corpus_groups[n] for n in ("z8", "z4x2", "z2x2x2", "d8", "q8")]
    extensions = [E for H in order8 for E in survey.central_extensions(H)]
    assert len(survey.classify(extensions)) == 14
