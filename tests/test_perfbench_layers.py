"""The benchmark's per-layer hooks still find every name they patch.

``perfbench/layers.py`` wraps package functions by name, and only a
traced benchmark run calls it; this test installs the hooks with the
benchmark's own tracer, so a rename or removal in the package fails here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from cmdsim import clustering, embedding, gateway, synthesis
from cmdsim.core import CommandLine

from conftest import ScriptedPost, reply

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_every_layer_and_uninstall_restores():
    layers, tracer_module = _load("layers"), _load("tracer")
    original, original_dbscan = embedding.embed_batch, clustering.dbscan
    tracer = tracer_module.Tracer()
    try:
        layers.install(tracer)
        assert embedding.embed_batch is not original
        assert clustering.dbscan is not original_dbscan
        embedding.embed_batch(embedding.HashingEmbeddingBackend(8), ["net user"])
        assert tracer.counts["embedding.texts"] == 1
        # The dbscan hook reads the labeling's labels and num_clusters.
        vectors = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]])
        clustering.dbscan(vectors, clustering.DbscanParams(eps=0.1, min_pts=3))
        assert tracer.counts["clustering.clusters"] == 1
        assert tracer.counts["clustering.points"] == 4
        assert tracer.counts["clustering.noise"] == 1
        assert {span[3] for span in tracer.spans} == {
            "embedding.embed_batch", "embedding.backend", "clustering.dbscan"}
    finally:
        tracer.uninstall()
    assert embedding.embed_batch is original
    assert clustering.dbscan is original_dbscan


def test_traced_provider_calls_reach_the_complete_span(monkeypatch):
    # The stages look gateway.complete up per call; a copy bound at import
    # would bypass the wrapper and leave gateway.completions at 0.
    layers, tracer_module = _load("layers"), _load("tracer")
    post = ScriptedPost(reply(200, {"choices": [{"message": {"content": "Lists users."}}]}))
    monkeypatch.setattr(gateway, "_urlopen_post", post)
    spec = gateway.ProviderSpec(name="local", endpoint="http://127.0.0.1:9/v1", model_id="m")
    commands = [CommandLine("net user"), CommandLine("whoami"), CommandLine("net user")]
    tracer = tracer_module.Tracer()
    try:
        layers.install(tracer)
        explanations, rejects = synthesis.generate_explanations(commands, spec, jobs=2)
    finally:
        tracer.uninstall()
    assert (len(explanations), rejects, len(post.calls)) == (3, [], 3)
    assert [span[3] for span in tracer.spans].count("gateway.complete") == 3
