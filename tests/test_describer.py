import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from hierstream._http import API_KEY_ENV, ClientError, HttpLimits, TransportError
from hierstream.core import ActionInstance, HierarchyLevel, Interval
from hierstream.describer.http import HttpDescriber
from hierstream.describer.mock import mock_describe
from hierstream.describer.prompts import (
    GOAL_PROMPT,
    STEP_PROMPT,
    SUBSTEP_PROMPT,
)
from hierstream.describer.responses import (
    DescriberResponse,
    build_request,
    parse_response,
)
from hierstream.memory import RetrievalBundle
from hierstream.metrics.embedding import HashedBagOfWordsEmbedder, HttpEmbedder
from hierstream.pipeline import HttpChatClient, kmeans_canonicalize, propose_grouping
from hierstream.runner import run_described_stream
from hierstream.simulator import SimConfig, gen_annotations, gen_scores

SUB = HierarchyLevel.SUBSTEP
STEP = HierarchyLevel.STEP
GOAL = HierarchyLevel.GOAL


def bundle(level, n_frames=3, history=(), start=2.0, end=4.0):
    frames = tuple(start + i * 0.5 for i in range(n_frames))
    return RetrievalBundle(frames, tuple(history), level, Interval(start, end))


class TestTemplates:
    def test_placeholders_present(self):
        assert "{prediction_list}" in STEP_PROMPT
        assert "{prediction_list}" in SUBSTEP_PROMPT
        assert "{short_form_step}" in GOAL_PROMPT

    def test_templates_byte_pinned(self):
        # Trailing whitespace is significant; catch accidental reformatting.
        import hashlib

        digests = {
            "goal": "44ed581c4c08b8bbd12c5af413428f87",
            "step": "1399f61dfa40b430dcae5e0c2cce05ce",
            "substep": "f5d793d00b126fa91764f77198c7b49b",
        }
        for name, template in (
            ("goal", GOAL_PROMPT), ("step", STEP_PROMPT), ("substep", SUBSTEP_PROMPT),
        ):
            assert hashlib.md5(template.encode()).hexdigest() == digests[name], name

    def test_goal_asks_for_single_line(self):
        assert GOAL_PROMPT.rstrip().endswith("Answer: (goal)")

    def test_three_field_output_contract(self):
        for template in (STEP_PROMPT, SUBSTEP_PROMPT):
            assert "short form response: (response)" in template
            assert "long form response (after revision): (response)" in template


class TestBuildRequest:
    def test_empty_history_serializes_as_empty_list(self):
        req = build_request(bundle(SUB))
        assert "{prediction_list}" not in req.prompt
        assert "Previous long form response: []" in req.prompt

    def test_full_history_in_order(self):
        history = [f"pred {i}" for i in range(10)]
        req = build_request(bundle(STEP, history=history))
        assert json.dumps(history) in req.prompt

    def test_goal_uses_short_form_placeholder(self):
        req = build_request(bundle(GOAL, history=["a", "b"]))
        assert 'Short form response of step: ["a", "b"]' in req.prompt

    def test_goal_with_no_history_flagged(self):
        req = build_request(bundle(GOAL))
        assert "Short form response of step: []" in req.prompt

    def test_handles_follow_bundle_order(self):
        frames = RetrievalBundle((2.0, 3.0), (), SUB, Interval(2.0, 4.0))
        names = {2.0: "early", 3.0: "late"}
        assert build_request(frames, names.__getitem__).frame_handles == ("early", "late")
        assert build_request(frames).frame_handles == ("frame@2.000", "frame@3.000")


class TestParseResponse:
    def test_well_formed_three_fields(self):
        text = (
            "Answer:\n"
            "short form response: rinse the beans\n"
            "long form response (before revision): The person rinses beans.\n"
            "long form response (after revision): The person rinses the beans thoroughly."
        )
        resp = parse_response(text)
        assert resp.short_form == "rinse the beans"
        assert resp.long_form_after.endswith("thoroughly.")

    def test_case_insensitive_labels(self):
        text = (
            "ANSWER:\n"
            "Short Form Response: a\n"
            "Long Form Response (Before Revision): b\n"
            "Long Form Response (After Revision): c"
        )
        resp = parse_response(text)
        assert (resp.short_form, resp.long_form_before, resp.long_form_after) == ("a", "b", "c")

    def test_goal_single_line(self):
        resp = parse_response("Answer: fix the bike")
        assert resp.short_form == "fix the bike"
        assert resp.long_form_before == "" and resp.long_form_after == ""

    def test_garbage_preserves_raw(self):
        with pytest.raises(ValueError) as err:
            parse_response("complete nonsense")
        assert str(err.value) == "no recognizable answer labels: 'complete nonsense'"

    def test_partial_labels_rejected(self):
        with pytest.raises(ValueError, match="incomplete labeled response"):
            parse_response("short form response: only this")


class TestMockDescriber:
    def test_deterministic(self):
        assert mock_describe(bundle(SUB)) == mock_describe(bundle(SUB))

    def test_interval_changes_response(self):
        a = mock_describe(bundle(SUB, start=2.0, end=4.0))
        b = mock_describe(bundle(SUB, start=2.0, end=5.0))
        assert a != b


# ----------------------------------------------------------------------
# HTTP integration against a local stub
# ----------------------------------------------------------------------

class _StubHandler(BaseHTTPRequestHandler):
    script: list = []  # (status, body) tuples consumed in order; bytes bodies go out raw
    answer = None  # once the script is empty: a function of the request body giving (status, body)
    requests_seen: list = []
    headers_seen: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        _StubHandler.requests_seen.append(body)
        _StubHandler.headers_seen.append(dict(self.headers))
        status, reply = _StubHandler.script.pop(0) if _StubHandler.script else _StubHandler.answer(body)
        payload = reply if isinstance(reply, bytes) else json.dumps(reply).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    _StubHandler.script = []
    _StubHandler.answer = None
    _StubHandler.requests_seen = []
    _StubHandler.headers_seen = []
    yield f"http://127.0.0.1:{server.server_port}/v1"
    server.shutdown()
    server.server_close()


def chat_reply(text):
    return {"choices": [{"message": {"content": text}}]}


WELL_FORMED = (
    "Answer:\n"
    "short form response: stub short\n"
    "long form response (before revision): stub before\n"
    "long form response (after revision): stub after"
)


def make_describer(url, retries=3):
    limits = HttpLimits(timeout=5.0, max_retries=retries, backoff_base=0.01)
    return HttpDescriber(HttpChatClient(url, "stub-model", limits))


class TestHttpDescriber:
    def test_canned_reply_parsed(self, stub_server):
        _StubHandler.script = [(200, chat_reply(WELL_FORMED))]
        request = build_request(bundle(SUB))
        resp = make_describer(stub_server)(None, request)
        assert resp == DescriberResponse("stub short", "stub before", "stub after")
        assert _StubHandler.requests_seen == [{
            "model": "stub-model",
            "temperature": 0.0,
            "messages": [{"role": "user", "content": [
                {"type": "text", "text": request.prompt},
                {"type": "image_url", "image_url": {"url": "frame@2.000"}},
                {"type": "image_url", "image_url": {"url": "frame@2.500"}},
                {"type": "image_url", "image_url": {"url": "frame@3.000"}},
            ]}],
        }]

    def test_chat_request_body(self, stub_server):
        _StubHandler.script = [(200, chat_reply("ok"))]
        client = HttpChatClient(stub_server, "stub-model", HttpLimits(timeout=5.0))
        assert client.complete("group these", str) == "ok"
        assert _StubHandler.requests_seen == [{
            "model": "stub-model",
            "temperature": 0.0,
            "messages": [{"role": "user", "content": "group these"}],
        }]

    def test_retries_on_5xx_then_succeeds(self, stub_server):
        _StubHandler.script = [
            (500, {"error": "boom"}),
            (500, {"error": "boom"}),
            (200, chat_reply(WELL_FORMED)),
        ]
        describer = make_describer(stub_server)
        resp = describer(None, build_request(bundle(SUB)))
        assert resp.short_form == "stub short"
        assert describer.stats.retries == 2

    def test_exhausted_retries_raise_transport(self, stub_server):
        _StubHandler.script = [(500, {})] * 3
        with pytest.raises(TransportError):
            make_describer(stub_server, retries=2)(None, build_request(bundle(SUB)))

    def test_malformed_reply_is_parse_error(self, stub_server):
        _StubHandler.script = [(200, chat_reply("garbage"))] * 2
        with pytest.raises(ValueError, match="'garbage'"):
            make_describer(stub_server, retries=1)(None, build_request(bundle(SUB)))

    def test_client_error_not_retried(self, stub_server):
        _StubHandler.script = [(404, {"error": "nope"})]
        describer = make_describer(stub_server)
        with pytest.raises(TransportError):
            describer(None, build_request(bundle(SUB)))
        assert describer.stats.requests == 1


def test_frame_handles_reach_the_endpoint_unchanged(stub_server):
    """``frame_handle`` is how real frames reach an HTTP describer: each
    handle goes out as one image URL, as given, in time order."""
    cfg = SimConfig(seed=1, videos=1, duration_range=(10.0, 15.0))
    scores = gen_scores(gen_annotations(cfg)[0], cfg.noise_sigma, cfg.fps, seed=1)
    handles = set()

    def frame_handle(t):
        handles.add(url := f"https://frames.example/{t:.2f}.jpg")
        return url

    _StubHandler.answer = lambda body: (200, chat_reply(WELL_FORMED))
    result = run_described_stream(scores, make_describer(stub_server), frame_handle=frame_handle)
    assert len(_StubHandler.requests_seen) == result.describe_calls > 1
    sent = 0
    for body in _StubHandler.requests_seen:
        urls = [p["image_url"]["url"] for p in body["messages"][0]["content"][1:]]
        assert set(urls) <= handles
        times = [float(u.removeprefix("https://frames.example/").removesuffix(".jpg")) for u in urls]
        assert times == sorted(times)
        sent += len(urls)
    assert sent > 0


# ----------------------------------------------------------------------
# the one HTTP path, shared by the describer, the embedder and the chat client
# ----------------------------------------------------------------------

def embeddings_reply(n):
    return {"data": [{"index": i, "embedding": [1.0, float(i)]} for i in range(n)]}


# name -> (build(url, limits), one call, a good reply, a malformed reply, what
# the malformed reply raises once retries run out)
CLIENTS = {
    "describer": (
        lambda url, limits: HttpDescriber(HttpChatClient(url, "stub-model", limits)),
        lambda client: client(None, build_request(bundle(SUB))),
        chat_reply(WELL_FORMED), chat_reply("garbage"), ValueError,
    ),
    "embedder": (
        lambda url, limits: HttpEmbedder(url, "stub-model", limits),
        lambda client: client.embed(["one text"]),
        embeddings_reply(1), embeddings_reply(2), ValueError,
    ),
    "chat": (
        lambda url, limits: HttpChatClient(url, "stub-model", limits),
        lambda client: client.complete("group these", str),
        chat_reply("ok"), {"choices": []}, TransportError,
    ),
}


@pytest.fixture(params=sorted(CLIENTS))
def remote(request, stub_server):
    """(client, call, good reply, malformed reply, error type) for each HTTP
    client, built against the stub with two retries and a short backoff."""
    build, call, good, bad, error = CLIENTS[request.param]
    client = build(stub_server, HttpLimits(timeout=5.0, max_retries=2, backoff_base=0.01))
    return client, lambda: call(client), good, bad, error


class TestOneHttpPath:
    @pytest.mark.parametrize("key", ["sk-test", None])
    def test_api_key_sent_when_set(self, monkeypatch, stub_server, key):
        if key:
            monkeypatch.setenv(API_KEY_ENV, key)
        else:
            monkeypatch.delenv(API_KEY_ENV, raising=False)
        for name in sorted(CLIENTS):
            build, call, good, _, _ = CLIENTS[name]
            _StubHandler.script = [(200, good)]
            call(build(stub_server, HttpLimits()))
        want = [f"Bearer {key}" if key else None] * len(CLIENTS)
        assert [h.get("Authorization") for h in _StubHandler.headers_seen] == want

    def test_5xx_retried_and_counted(self, remote):
        client, call, good, _, _ = remote
        _StubHandler.script = [(500, {}), (503, {}), (200, good)]
        call()
        assert (client.stats.requests, client.stats.retries) == (3, 2)

    def test_malformed_reply_retried_then_raised(self, remote):
        client, call, good, bad, error = remote
        _StubHandler.script = [(200, bad), (200, good)]
        call()
        assert client.stats.retries == 1
        _StubHandler.script = [(200, bad)] * 3
        with pytest.raises(error) as err:
            call()
        # A ValueError is the reply's content (exit 2); anything else is transport (exit 3).
        assert isinstance(err.value, ValueError) != isinstance(err.value, TransportError)
        assert client.stats.requests == 2 + 3

    def test_body_not_json_retried_then_transport(self, remote):
        client, call, good, _, _ = remote
        _StubHandler.script = [(200, b"<html>busy</html>"), (200, good)]
        call()
        _StubHandler.script = [(200, b"<html>busy</html>")] * 3
        with pytest.raises(TransportError):
            call()
        assert client.stats.retries == 1 + 2

    def test_4xx_sent_once(self, remote):
        client, call, _, _, _ = remote
        _StubHandler.script = [(401, {"error": "bad key"})]
        with pytest.raises(ClientError, match="401"):
            call()
        assert client.stats.requests == 1

    def test_stats_count_every_request_across_threads(self, stub_server):
        client = HttpChatClient(stub_server, "stub-model", HttpLimits(max_inflight=8))
        _StubHandler.answer = lambda body: (200, chat_reply("ok"))
        threads = [
            threading.Thread(target=lambda: [client.complete("x", str) for _ in range(25)])
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert client.stats.requests == len(_StubHandler.requests_seen) == 8 * 25


ATOMS = [ActionInstance(Interval(0.0, 2.0), "chop", SUB), ActionInstance(Interval(2.0, 4.0), "stir", SUB)]
GROUPING = json.dumps({"steps": [{"substep_indices": [0, 1], "description": "cook"}], "goal": "g"})


class TestChatRepliesShareTheBudget:
    """Grouping and caption replies that do not parse are re-asked by the
    HTTP layer alone, and counted as its retries."""

    @pytest.fixture
    def chat(self, stub_server):
        return HttpChatClient(stub_server, "stub-model", HttpLimits(timeout=5.0, max_retries=2, backoff_base=0.01))

    def test_malformed_grouping_sent_three_times_then_raised(self, chat):
        _StubHandler.script = [(200, chat_reply("not json at all"))] * 3
        with pytest.raises(ValueError) as err:
            propose_grouping(ATOMS, chat)
        assert str(err.value) == "no JSON object in reply: 'not json at all'"
        assert (chat.stats.requests, chat.stats.retries) == (3, 2)

    def test_malformed_then_good_grouping(self, chat):
        _StubHandler.script = [(200, chat_reply('{"steps": []}')), (200, chat_reply(GROUPING))]
        assert propose_grouping(ATOMS, chat).groups == ((0, 1),)
        assert (chat.stats.requests, chat.stats.retries) == (2, 1)

    def test_empty_caption_retried(self, chat):
        _StubHandler.script = [(200, chat_reply(" \n")), (200, chat_reply(" a caption\n"))]
        result = kmeans_canonicalize(["chop onions", "dice onions"], 1, HashedBagOfWordsEmbedder(), chat)
        assert result.representatives == ("a caption",)
        assert (chat.stats.requests, chat.stats.retries) == (2, 1)
        _StubHandler.script = [(200, chat_reply(""))] * 3
        with pytest.raises(ValueError, match="empty caption"):
            kmeans_canonicalize(["chop onions", "dice onions"], 1, HashedBagOfWordsEmbedder(), chat)
        assert chat.stats.requests == 2 + 3


@pytest.mark.parametrize("field,value", [
    ("max_retries", -1), ("max_inflight", 0),
    ("timeout", 0.0), ("timeout", float("nan")), ("timeout", float("inf")),
    ("backoff_base", -0.5), ("backoff_base", float("nan")),
])
def test_limits_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        HttpLimits(**{field: value})
