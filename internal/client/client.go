// Package client is the Go client for the kcmd query protocol
// (internal/wire): single-shot queries, session-driven enumeration
// (next/cancel), NDJSON solution streaming, and the stats endpoint.
// The kcmd smoke gate and the server's tests are built on it.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/wire"
)

// Client talks to one kcmd daemon.
type Client struct {
	base string
	http *http.Client
}

// New returns a client for the daemon at base, e.g.
// "http://127.0.0.1:7071".
func New(base string) *Client {
	return &Client{
		base: base,
		http: &http.Client{Timeout: 5 * time.Minute},
	}
}

// Base is the daemon URL this client talks to.
func (c *Client) Base() string { return c.base }

// post sends one JSON body and decodes one JSON reply.
func (c *Client) post(ctx context.Context, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: %s: decode (http %d): %w", path, resp.StatusCode, err)
	}
	return nil
}

// Query runs one query request (non-streaming). The reply's Status
// tells the outcome; StatusError replies are returned as values, not
// Go errors, so callers can treat protocol and transport failures
// differently.
func (c *Client) Query(ctx context.Context, req wire.QueryRequest) (wire.Reply, error) {
	req.Stream = false
	var rep wire.Reply
	err := c.post(ctx, "/v1/query", req, &rep)
	return rep, err
}

// Next resumes a parked session by one slice. budget 0 keeps the
// session's budget.
func (c *Client) Next(ctx context.Context, session string, budget uint64) (wire.Reply, error) {
	var rep wire.Reply
	err := c.post(ctx, "/v1/next", wire.NextRequest{Session: session, Budget: budget}, &rep)
	return rep, err
}

// Cancel discards a parked session.
func (c *Client) Cancel(ctx context.Context, session string) (wire.Reply, error) {
	var rep wire.Reply
	err := c.post(ctx, "/v1/cancel", wire.CancelRequest{Session: session}, &rep)
	return rep, err
}

// Suspend serializes a parked session to the daemon's state
// directory. The reply's Handle (status "parked") resumes it later —
// against this daemon or a restarted one serving the same programs.
func (c *Client) Suspend(ctx context.Context, session string) (wire.Reply, error) {
	var rep wire.Reply
	err := c.post(ctx, "/v1/suspend", wire.SuspendRequest{Session: session}, &rep)
	return rep, err
}

// Resume rebuilds a suspended session from its handle. The reply
// (status "suspended") carries the new session id; drive it with Next
// exactly as before the suspension.
func (c *Client) Resume(ctx context.Context, req wire.ResumeRequest) (wire.Reply, error) {
	var rep wire.Reply
	err := c.post(ctx, "/v1/resume", req, &rep)
	return rep, err
}

// Assert adds a clause to a tenant's dynamic database (front selects
// asserta over assertz). The reply's Version is the tenant database
// version the mutation produced.
func (c *Client) Assert(ctx context.Context, req wire.AssertRequest) (wire.Reply, error) {
	var rep wire.Reply
	err := c.post(ctx, "/v1/assert", req, &rep)
	return rep, err
}

// Retract removes the first variant-equal clause from a tenant's
// dynamic database; the reply Status is "yes" when a clause was
// removed and "no" when none matched.
func (c *Client) Retract(ctx context.Context, req wire.RetractRequest) (wire.Reply, error) {
	var rep wire.Reply
	err := c.post(ctx, "/v1/retract", req, &rep)
	return rep, err
}

// Stats fetches the daemon's /v1/stats snapshot.
func (c *Client) Stats(ctx context.Context) (wire.StatsReply, error) {
	var rep wire.StatsReply
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return rep, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("client: stats: http %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&rep)
	return rep, err
}

// Stream runs a streaming query, invoking yield for every solution
// line as it arrives. It returns the terminal summary line (Status
// "done", or "error" with the server's message). yield returning
// false stops consuming; the connection closes, which releases the
// server-side session.
func (c *Client) Stream(ctx context.Context, req wire.QueryRequest, yield func(wire.Reply) bool) (wire.Reply, error) {
	req.Stream = true
	buf, err := json.Marshal(req)
	if err != nil {
		return wire.Reply{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/query", bytes.NewReader(buf))
	if err != nil {
		return wire.Reply{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(hreq)
	if err != nil {
		return wire.Reply{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var last wire.Reply
	for sc.Scan() {
		var rep wire.Reply
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return last, fmt.Errorf("client: stream line: %w", err)
		}
		last = rep
		if rep.Status != wire.StatusYes {
			return rep, nil // terminal: done or error
		}
		if yield != nil && !yield(rep) {
			return rep, nil
		}
	}
	if err := sc.Err(); err != nil {
		return last, err
	}
	return last, fmt.Errorf("client: stream ended without a terminal line (http %d)", resp.StatusCode)
}
