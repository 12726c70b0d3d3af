package wire

import (
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/obs"
	"crackstore/internal/store"
)

// The golden frames pin the protocol byte for byte: peers built from
// older or newer sources interoperate only while every message keeps the
// exact encoding below (frame header included). A change here is a
// protocol change, not a refactor.

var goldenRequests = []struct {
	name string
	req  Request
	hex  string
}{
	{"query", Request{ID: 1, Op: OpQuery, TTL: 5 * time.Millisecond, Query: engine.Query{
		Preds: []engine.AttrPred{
			{Attr: "A", Pred: store.Range(10, 20)},
			{Attr: "B", Pred: store.Pred{Lo: -5, Hi: 5, HiIncl: true}},
		},
		Projs: []string{"B", "C"},
	}}, "000000175aa5c32bfabf9f9101018827020141142801000142090a0001020142014300"},
	{"traced query", Request{ID: 2, Op: OpQueryRO, Trace: 0xABCDEF, Query: engine.Query{
		Preds:       []engine.AttrPred{{Attr: "A", Pred: store.Point(7)}},
		Disjunctive: true,
	}}, "000000105aa5c32c8f05283c420200ef9baf050101410e0e01010001"},
	{"insert with token", Request{ID: 3, Op: OpInsert, Token: 1 << 40, Vals: []store.Value{-1, 0, 1 << 40}}, "000000225aa5c31ee6172d4e03030080808080802003ffffffffffffffff00000000000000000000000000010000"},
	{"delete", Request{ID: 4, Op: OpDelete, Token: 9, Key: 123456}, "000000075aa5c33b1471d3e20404000980890f"},
	{"stats", Request{ID: 5, Op: OpStats}, "000000035aa5c33f84fdefbc050500"},
	{"hello", Request{ID: 6, Op: OpHello, Version: ProtoVersion}, "000000045aa5c3385610fa3b07060002"},
}

var goldenResponses = []struct {
	name string
	resp Response
	hex  string
}{
	{"ok with result and cost", Response{ID: 1, Op: OpQuery, Status: StatusOK,
		Result: engine.Result{N: 2, Cols: map[string][]store.Value{"B": {1, 2}, "C": {-3, 1 << 50}}},
		Cost:   engine.Cost{Sel: 1500 * time.Nanosecond, TR: 20 * time.Microsecond}}, "000000305aa5c30c43a0f2f1810100020201420201000000000000000200000000000000014302fdffffffffffffff0000000000000400b817c0b802"},
	{"error", Response{ID: 7, Op: OpInsert, Status: StatusErr, Err: "boom"}, "000000085aa5c334402fcfa383070104626f6f6d"},
	{"refused", Response{ID: 8, Op: OpQueryRO, Status: StatusRefused}, "000000035aa5c33f3b27fdd8820802"},
	{"overloaded", Response{ID: 9, Op: OpDelete, Status: StatusOverloaded}, "000000035aa5c33f51b680bd840903"},
	{"traced with spans", Response{ID: 2, Op: OpQueryRO, Status: StatusOK,
		Result: engine.Result{N: 1, Cols: map[string][]store.Value{"A": {7}}},
		Spans: []obs.Span{
			{Stage: obs.StageQueue, Dur: time.Microsecond},
			{Stage: obs.StageExecute, Start: time.Microsecond, Dur: 5 * time.Microsecond},
		}}, "0000001c5aa5c320f59a8dbfc20200010101410107000000000000000000020200e80703e8078827"},
	{"stats", Response{ID: 5, Op: OpStats, Status: StatusOK, Stats: Stats{
		Queries: 100, Errors: 2, Sheds: 1, Elapsed: 3 * time.Second, QPS: 33.5,
		P50: time.Millisecond, P95: 2 * time.Millisecond, P99: 3 * time.Millisecond, Max: time.Second,
	}}, "000000245aa5c3180315004c85050064020180f882ad16808080808080b0a04080897a8092f401809bee0280a8d6b907"},
}

func TestGoldenRequests(t *testing.T) {
	for _, g := range goldenRequests {
		got := hex.EncodeToString(AppendRequest(nil, &g.req))
		if got != g.hex {
			t.Errorf("%s: encoding changed\n got %s\nwant %s", g.name, got, g.hex)
			continue
		}
		frame, _ := hex.DecodeString(g.hex)
		req, err := DecodeRequest(frame[FrameHeader:])
		if err != nil {
			t.Errorf("%s: decode: %v", g.name, err)
			continue
		}
		if !reflect.DeepEqual(normalizeReq(req), normalizeReq(g.req)) {
			t.Errorf("%s: decoded %+v, want %+v", g.name, req, g.req)
		}
	}
}

func TestGoldenResponses(t *testing.T) {
	for _, g := range goldenResponses {
		got := hex.EncodeToString(AppendResponse(nil, &g.resp))
		if got != g.hex {
			t.Errorf("%s: encoding changed\n got %s\nwant %s", g.name, got, g.hex)
			continue
		}
		frame, _ := hex.DecodeString(g.hex)
		resp, err := DecodeResponse(frame[FrameHeader:])
		if err != nil {
			t.Errorf("%s: decode: %v", g.name, err)
			continue
		}
		if !reflect.DeepEqual(normalizeResp(resp), normalizeResp(g.resp)) {
			t.Errorf("%s: decoded %+v, want %+v", g.name, resp, g.resp)
		}
	}
}
