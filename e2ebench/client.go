package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"time"
)

// client is the benchmark's side of the wire: one process holding at most
// two keep-alive connections to the server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}}
}

// call sends one request inside a span named name and returns the status
// and the whole response body.
func (c *client) call(ctx context.Context, name, method, path string, body []byte) (int, []byte, error) {
	ctx, sp := startSpan(ctx, name)
	defer sp.end()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }
