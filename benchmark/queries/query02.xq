(: XMark Q2 — the increases of all bids. Predicate-free: Theorem 2
   applies and the optimizer removes every parameter. :)
<out>{
  for $b in /site/open_auctions/open_auction/bidder/increase
  return <increase>{$b/text()}</increase>
}</out>
